// Package tracetest holds the reference implementation tests check
// trace serving against. It is imported only by tests.
package tracetest

import (
	"bytes"

	"nmo/internal/trace"
)

// Restream is the naive oracle for trace.RestreamPlanExact: it decodes
// every block of rd, keeps the samples with timestamps in [lo, hi)
// (0 = unbounded) on core (-1 = all), and re-encodes them with the
// source's block size and compression. A block whose samples all
// survive a core-free predicate is written as a block of its own; the
// survivors of every other block pack into the running output block.
// That is the block layout the span plan produces by lifting provably
// whole blocks verbatim, so the two outputs must match byte for byte.
func Restream(rd *trace.ReaderV2, lo, hi uint64, core int) ([]byte, error) {
	newW := trace.NewWriterV2
	if rd.Compressed() {
		newW = trace.NewWriterV21
	}
	var out bytes.Buffer
	wr, err := newW(&out, rd.Meta(), rd.BlockSamples())
	if err != nil {
		return nil, err
	}
	var buf, keep []trace.Sample
	for i := 0; i < rd.NumBlocks(); i++ {
		if buf, err = rd.ReadBlock(i, buf); err != nil {
			return nil, err
		}
		keep = keep[:0]
		for _, s := range buf {
			if (lo == 0 || s.TimeNs >= lo) && (hi == 0 || s.TimeNs < hi) &&
				(core < 0 || int(s.Core) == core) {
				keep = append(keep, s)
			}
		}
		whole := core < 0 && len(keep) == len(buf)
		if whole {
			if err := wr.Flush(); err != nil {
				return nil, err
			}
		}
		if err := wr.EmitBatch(keep); err != nil {
			return nil, err
		}
		if whole {
			if err := wr.Flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := wr.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
