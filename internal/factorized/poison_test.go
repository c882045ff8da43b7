package factorized

import (
	"os"
	"testing"

	"fivm/internal/data"
)

// TestMain runs the package under data's poison hook (data.PoisonReclaimed):
// storage kept past its owner's reclaim point fails the suite loudly.
func TestMain(m *testing.M) {
	data.PoisonReclaimed(true)
	os.Exit(m.Run())
}
