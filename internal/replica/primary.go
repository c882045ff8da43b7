package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/db"
	"fivm/internal/wal"
)

// Primary streams the DB's WAL to any number of followers. Each accepted
// connection is served by its own goroutine that never touches DB state —
// it only subscribes to live WAL frames and reads segments back from disk —
// so replication adds no work to the maintenance goroutine's apply path.
type Primary struct {
	d   *db.DB
	lis net.Listener

	handshakeTimeout time.Duration
	writeTimeout     time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewPrimary wraps a durable DB (the WAL is the replication stream; an
// in-memory DB has nothing to ship) and a listener for follower
// connections. Call Serve to start accepting.
func NewPrimary(d *db.DB, lis net.Listener) (*Primary, error) {
	if d.WAL() == nil {
		return nil, errors.New("replica: primary requires a durable DB (WAL enabled)")
	}
	return &Primary{
		d:                d,
		lis:              lis,
		handshakeTimeout: 10 * time.Second,
		writeTimeout:     30 * time.Second,
		conns:            make(map[net.Conn]struct{}),
		done:             make(chan struct{}),
	}, nil
}

// Addr returns the listener's address (tests bind port 0).
func (p *Primary) Addr() net.Addr { return p.lis.Addr() }

// Serve accepts follower connections until Close. It always returns a
// non-nil error; after Close it is net.ErrClosed.
func (p *Primary) Serve() error {
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return err
		}
		p.mu.Lock()
		if p.closed.Load() {
			p.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer func() {
				p.mu.Lock()
				delete(p.conns, conn)
				p.mu.Unlock()
				conn.Close()
			}()
			p.serveConn(conn)
		}()
	}
}

// Close stops accepting, severs every follower connection, and waits for
// the per-connection goroutines to exit. The DB stays open.
func (p *Primary) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.done)
	err := p.lis.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// firstFrameLSN probes the first WAL frame past afterLSN (0 when none).
func firstFrameLSN(fs wal.VFS, dir string, afterLSN uint64) (uint64, error) {
	var first uint64
	_, _, err := wal.ScanFramesAfter(fs, dir, afterLSN, func(lsn uint64, _ []byte) error {
		first = lsn
		return errStopScan
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return 0, err
	}
	return first, nil
}

// serveConn runs one follower: handshake (catch-up or checkpoint
// transfer), then stream frames forever — disk scan to catch up, live
// subscription once caught up, falling back to the disk scan whenever the
// subscription overflows.
func (p *Primary) serveConn(conn net.Conn) {
	l := p.d.WAL()
	fs, dir := l.FS(), l.Dir()

	conn.SetReadDeadline(time.Now().Add(p.handshakeTimeout))
	last, err := readHandshake(conn)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	bw := bufio.NewWriterSize(conn, 64<<10)
	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
		return bw.Flush()
	}

	// Handshake decision: frame catch-up from `last`, or checkpoint
	// transfer when the frames right after `last` were pruned.
	first, err := firstFrameLSN(fs, dir, last)
	if err != nil {
		return
	}
	raw, ck, err := wal.LatestCheckpointBytes(fs, dir)
	if err != nil {
		return
	}
	needCkpt := ck != nil && ck.LSN > last &&
		(first == 0 || first != last+1)
	if needCkpt {
		var hdr [5]byte
		hdr[0] = modeCheckpoint
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(raw)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return
		}
		if _, err := bw.Write(raw); err != nil {
			return
		}
		last = ck.LSN
	} else if err := bw.WriteByte(modeFrames); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}

	send := func(_ uint64, frame []byte) error {
		_, err := bw.Write(frame)
		return err
	}
	for !p.closed.Load() {
		// Subscribe before scanning so nothing falls between disk and live.
		sub := l.SubscribeFrames(256)
		scanLast, gap, err := wal.ScanFramesAfter(fs, dir, last, send)
		last = scanLast
		if err != nil || gap {
			// gap: a checkpoint pruned records mid-stream; the follower
			// reconnects and the next handshake ships the checkpoint.
			sub.Close()
			return
		}
		if err := flush(); err != nil {
			sub.Close()
			return
		}
		rescan := false
		for !rescan {
			select {
			case f, ok := <-sub.C():
				if !ok {
					// Overflow (fall back to the disk scan) or log closed.
					if !sub.Overflowed() {
						return
					}
					rescan = true
					continue
				}
				if f.LSN <= last {
					f.Release()
					continue // already sent by the disk scan
				}
				if f.LSN > last+1 {
					f.Release()
					rescan = true // defensive: refill from disk
					continue
				}
				// The write copies the bytes (into bw, or straight onto the
				// connection): the log may have the buffer back.
				err := send(f.LSN, f.Bytes)
				f.Release()
				if err != nil {
					sub.Close()
					return
				}
				last = f.LSN
				if len(sub.C()) == 0 {
					if err := flush(); err != nil {
						sub.Close()
						return
					}
				}
			case <-p.done:
				sub.Close()
				return
			}
		}
		sub.Close()
	}
}

// String describes the primary (diagnostics).
func (p *Primary) String() string {
	return fmt.Sprintf("replica.Primary(%s)", p.lis.Addr())
}
