package ivm

// TrackedViews reports which materialized views carry snapshot state (dirty
// tracking, payload privatisation): whether the root does, and how many of
// the views below it do.
func (e *Engine[P]) TrackedViews() (root bool, internal int) {
	for node, ir := range e.views {
		_, tracking := ir.DirtyKeys()
		switch {
		case !tracking:
		case node == e.root:
			root = true
		default:
			internal++
		}
	}
	return root, internal
}
