//go:build linux

package zerocopy

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
)

// Splice flags and the pipe-resize fcntl (the Drainer's), absent from
// the stdlib syscall package.
const (
	spliceFMove     = 0x1  // SPLICE_F_MOVE
	spliceFNonblock = 0x2  // SPLICE_F_NONBLOCK
	fSetPipeSz      = 1031 // F_SETPIPE_SZ
)

// pipeSize is the capacity we ask of the Drainer's pipes (best
// effort; the kernel default is 64 KiB).
const pipeSize = 1 << 20

// pipePair is one reusable splice pipe. Pairs are pooled; a pair the
// pool drops is closed by its finalizer, so churn leaks no fds.
type pipePair struct {
	r, w int
}

var pipePool sync.Pool

func getPipe() (*pipePair, error) {
	if p, ok := pipePool.Get().(*pipePair); ok {
		return p, nil
	}
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return nil, err
	}
	p := &pipePair{r: fds[0], w: fds[1]}
	// Best effort: a bigger pipe means fewer poller round-trips per
	// response. The kernel may refuse (pipe-user-pages-soft); the 64
	// KiB default still works.
	syscall.Syscall(syscall.SYS_FCNTL, uintptr(p.w), fSetPipeSz, pipeSize)
	runtime.SetFinalizer(p, (*pipePair).close)
	return p, nil
}

func putPipe(p *pipePair) { pipePool.Put(p) }

// discard retires a pair that may hold stranded bytes from an aborted
// transfer: clear the finalizer (so the fds aren't closed twice) and
// close now instead of pooling.
func (p *pipePair) discard() {
	runtime.SetFinalizer(p, nil)
	p.close()
}

func (p *pipePair) close() {
	syscall.Close(p.r)
	syscall.Close(p.w)
}

// Drainer consumes exactly-sized byte runs from a TCP connection
// without staging them in user space: splice(2) moves the socket's
// page-ref skb fragments into a pooled pipe and on into /dev/null, so
// the receive side costs page accounting, not copies. It exists for
// benchmarks and tests that need a client whose cost profile resembles
// a remote peer — an in-process read-everything client performs the
// very copies the serve path eliminated and, sharing the host's CPU,
// charges them back to the measurement (see DESIGN.md §14). Non-TCP
// conns and kernels that refuse the splice degrade to a bounded
// pooled-buffer discard with the same contract.
type Drainer struct {
	conn   net.Conn
	rc     syscall.RawConn
	pipe   *pipePair
	null   *os.File
	fill   func(fd uintptr) bool
	want   int64
	moved  int64
	terr   error
	refuse bool
	dirty  bool // emptyPipe failed with bytes still in the pipe
}

// NewDrainer wraps c. It never fails into an unusable state: when the
// kernel path can't be assembled the Drainer simply discards through a
// pooled copy buffer.
func NewDrainer(c net.Conn) (*Drainer, error) {
	d := &Drainer{conn: c}
	sc, ok := c.(syscall.Conn)
	if !ok {
		return d, nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return d, nil
	}
	p, err := getPipe()
	if err != nil {
		return d, nil
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		putPipe(p)
		return d, nil
	}
	d.rc, d.pipe, d.null = rc, p, null
	d.fill = d.drainFill
	return d, nil
}

// Discard consumes exactly n bytes from the connection, returning how
// many were moved and the first error. Short streams surface as
// io.ErrUnexpectedEOF, mirroring the section readers.
func (d *Drainer) Discard(n int64) (int64, error) {
	if d.rc == nil || d.refuse || d.dirty {
		return d.discardCopy(n)
	}
	d.want, d.moved, d.terr = n, 0, nil
	for d.moved < d.want && d.terr == nil && !d.refuse {
		if err := d.rc.Read(d.fill); err != nil {
			d.terr = err
		}
	}
	runtime.KeepAlive(d.null)
	if d.refuse {
		m, err := d.discardCopy(d.want - d.moved)
		return d.moved + m, err
	}
	return d.moved, d.terr
}

// drainFill is the readability step: splice the next chunk socket →
// pipe, then empty the pipe into /dev/null (which never blocks).
// Returning false parks in the poller until the socket is readable.
func (d *Drainer) drainFill(fd uintptr) bool {
	for d.moved < d.want {
		want := d.want - d.moved
		if want > pipeSize {
			want = pipeSize
		}
		n, err := syscall.Splice(int(fd), nil, d.pipe.w, nil, int(want), spliceFMove|spliceFNonblock)
		if n > 0 {
			if !d.emptyPipe(n) {
				return true
			}
			d.moved += n
			continue
		}
		switch err {
		case nil:
			d.terr = io.ErrUnexpectedEOF // peer closed mid-run
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		case syscall.EINVAL, syscall.ENOSYS, syscall.EOPNOTSUPP:
			d.refuse = true
			return true
		default:
			d.terr = err
			return true
		}
	}
	return true
}

func (d *Drainer) emptyPipe(n int64) bool {
	for n > 0 {
		m, err := syscall.Splice(d.pipe.r, nil, int(d.null.Fd()), nil, int(n), spliceFMove)
		if m > 0 {
			n -= m
			continue
		}
		if err == syscall.EINTR {
			continue
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		d.terr = err
		d.dirty = true
		return false
	}
	return true
}

// Close releases the pipe back to the pool — unless a failed drain
// left bytes stranded in it, in which case the pair is retired so no
// other transfer can inherit them — and closes the /dev/null handle.
// The wrapped connection stays open.
func (d *Drainer) Close() error {
	if d.pipe != nil {
		if d.dirty {
			d.pipe.discard()
		} else {
			putPipe(d.pipe)
		}
		d.pipe = nil
	}
	if d.null != nil {
		err := d.null.Close()
		d.null = nil
		return err
	}
	return nil
}

// FadviseWillNeed hints the kernel to read the whole file ahead —
// called when a spill-file serve handle is first opened, so the disk
// read overlaps the response instead of stalling the first extent.
func FadviseWillNeed(f *os.File) {
	fadvise(f.Fd(), 3 /* POSIX_FADV_WILLNEED */)
	runtime.KeepAlive(f)
}

// DropPageCache hints the kernel that a spill file's pages are dead —
// called right before eviction unlinks it, so a full disk tier doesn't
// squat on page cache the live blobs want.
func DropPageCache(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	fadvise(f.Fd(), 4 /* POSIX_FADV_DONTNEED */)
	f.Close()
}

func fadvise(fd uintptr, advice int) {
	syscall.Syscall6(syscall.SYS_FADVISE64, fd, 0, 0, uintptr(advice), 0, 0)
}
