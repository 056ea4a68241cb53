//go:build !linux

package zerocopy

import (
	"net"
	"os"
)

// Drainer off Linux is a bounded discard through a pooled copy buffer
// — same contract, no kernel offload.
type Drainer struct {
	conn net.Conn
}

// NewDrainer wraps c.
func NewDrainer(c net.Conn) (*Drainer, error) { return &Drainer{conn: c}, nil }

// Discard consumes exactly n bytes from the connection.
func (d *Drainer) Discard(n int64) (int64, error) { return d.discardCopy(n) }

// Close is a no-op; the wrapped connection stays open.
func (d *Drainer) Close() error { return nil }

// FadviseWillNeed is a no-op off Linux.
func FadviseWillNeed(f *os.File) {}

// DropPageCache is a no-op off Linux.
func DropPageCache(path string) {}
