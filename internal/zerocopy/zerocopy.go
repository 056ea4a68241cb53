// Package zerocopy holds the trace data plane's byte accounting and
// its kernel helpers. Counters classify every served trace byte by
// plane and every broken body copy by cause; FadviseWillNeed and
// DropPageCache hint the page cache about spill files; Drainer is a
// splice-based discard client for benchmarks and tests.
//
// The shard's sendfile(2) is net/http's own: a handler that flushes
// its header and copies an *io.LimitedReader over an *os.File into
// the ResponseWriter has response.ReadFrom hand the reader to the TCP
// conn, which sends the file range with sendfile. This package adds
// nothing to that path.
package zerocopy

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
)

// Counters is the trace data plane's byte accounting, kept by a
// daemon's HTTP handlers. Sendfile bytes are spill-file extents handed
// to net/http as a sendfile-eligible file range; fallback bytes are
// written from user space (memory-tier blobs, plan literals, the
// gateway relay). Terminal copy outcomes split into client aborts vs
// local/upstream errors. All methods are nil-safe so plumbing can stay
// optional.
type Counters struct {
	sendfile atomic.Int64
	fallback atomic.Int64
	aborts   atomic.Uint64
	errors   atomic.Uint64
}

// AddSendfile credits n spill-file extent bytes.
func (c *Counters) AddSendfile(n int64) {
	if c != nil && n > 0 {
		c.sendfile.Add(n)
	}
}

// AddFallback credits n bytes written from user space.
func (c *Counters) AddFallback(n int64) {
	if c != nil && n > 0 {
		c.fallback.Add(n)
	}
}

// NoteAbort records a body copy cut short by the client going away.
func (c *Counters) NoteAbort() {
	if c != nil {
		c.aborts.Add(1)
	}
}

// NoteError records a body copy broken by a disk or upstream failure.
func (c *Counters) NoteError() {
	if c != nil {
		c.errors.Add(1)
	}
}

// SendfileBytes returns the sendfile byte total.
func (c *Counters) SendfileBytes() int64 { return c.sendfile.Load() }

// FallbackBytes returns the user-space byte total.
func (c *Counters) FallbackBytes() int64 { return c.fallback.Load() }

// ClientAborts returns the client-abort count.
func (c *Counters) ClientAborts() uint64 { return c.aborts.Load() }

// Errors returns the disk/upstream failure count.
func (c *Counters) Errors() uint64 { return c.errors.Load() }

// CountCopyErr classifies and counts a body-copy error: a canceled
// request context, EPIPE, ECONNRESET, or a closed local conn means the
// client went away (an abort, not a server problem); anything else is
// a disk or upstream failure. A nil err counts nothing.
func (c *Counters) CountCopyErr(ctx context.Context, err error) {
	if err == nil {
		return
	}
	if IsClientAbort(ctx, err) {
		c.NoteAbort()
	} else {
		c.NoteError()
	}
}

// IsClientAbort reports whether a response-body copy error means the
// client disconnected rather than the server failing to produce the
// bytes.
func IsClientAbort(ctx context.Context, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, net.ErrClosed)
}

// copyBufPool recycles the 256 KiB buffers of the Drainer's portable
// discard.
var copyBufPool = sync.Pool{
	New: func() interface{} { b := make([]byte, 256<<10); return &b },
}

// discardCopy is the Drainer's portable tier: read exactly n bytes
// through a pooled buffer and drop them.
func (d *Drainer) discardCopy(n int64) (int64, error) {
	bufp := copyBufPool.Get().(*[]byte)
	m, err := io.CopyBuffer(io.Discard, io.LimitReader(d.conn, n), *bufp)
	copyBufPool.Put(bufp)
	if err == nil && m < n {
		err = io.ErrUnexpectedEOF
	}
	return m, err
}
