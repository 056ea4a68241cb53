package trace

// PlanSegment is one piece of a span plan, in output order: either
// literal bytes (Data non-nil — the header, re-encoded straddler
// blocks, footer index, and tail) or an extent of Len stored bytes to
// lift verbatim from the source stream at SrcOff.
type PlanSegment struct {
	Data   []byte
	SrcOff int64
	Len    int64
}

// RestreamPlan is a trace response described as segments instead of a
// byte stream. Concatenating the segments (reading extents from the
// source) yields the response body; Size and MD5 are known before the
// first byte, so a server can send a sized response with its checksum
// up front and move every extent without passing it through user
// space (sendfile from a spill file, or one write from a resident
// slice). Adjacent whole blocks coalesce into one extent, so a mostly
// admitted trace plans into a handful of large spans, and the whole
// stored stream is a single extent.
type RestreamPlan struct {
	Segments []PlanSegment
	Size     int64    // total output bytes
	MD5      [16]byte // the output stream's rolling MD5
}

// RestreamPlanExact plans a filtered copy of rd under the canonical
// service predicate — timestamps in [lo, hi) (0 = unbounded) and an
// optional single core (-1 = all) — as a fresh v2/v2.1 stream with the
// source's block size and compression mode, its own index and rolling
// MD5. Blocks the index rules out are never read. A block the index
// proves entirely inside the predicate closes the current output block
// and becomes an extent of its stored bytes (compressed frames move
// without a decompress/recompress round trip); every other admitted
// block is decoded, exact-filtered, and its survivors are re-encoded
// into the literal segments.
//
// The literal bytes live in memory: header, footer and straddler
// blocks for a time window, but the whole filtered output (at most
// the source's size) for a core filter — CoreMask aliases at 64
// cores, so a core predicate never proves a block whole.
func RestreamPlanExact(rd *ReaderV2, lo, hi uint64, core int) (*RestreamPlan, error) {
	col := &segmentCollector{}
	wr, err := newWriterV2(col, rd.Meta(), rd.blockSamples, rd.compressed)
	if err != nil {
		return nil, err
	}
	wr.spliceOut = col.splice
	if err := restreamInto(rd, wr, lo, hi, core); err != nil {
		return nil, err
	}
	col.flushLiteral()
	return &RestreamPlan{Segments: col.segs, Size: col.size, MD5: wr.Sum16()}, nil
}

// restreamInto walks rd's blocks under the predicate, splicing
// provably whole blocks and re-encoding the survivors of the rest.
func restreamInto(rd *ReaderV2, wr *WriterV2, lo, hi uint64, core int) error {
	hints := ScanHints{TimeLo: lo, TimeHi: hi}
	if core >= 0 {
		hints.CoreMask = CoreBit(int16(core))
	}
	var buf []Sample
	var err error
	for i := 0; i < rd.NumBlocks(); i++ {
		b := rd.index[i]
		if !hints.Admits(b) {
			rd.skip++
			continue
		}
		rd.read++
		// The index proves every sample matches when the time range is
		// contained and no core filter applies (CoreMask aliases at 64
		// cores, so a mask hit alone proves nothing).
		whole := core < 0 &&
			(lo == 0 || b.TimeMin >= lo) &&
			(hi == 0 || b.TimeMax < hi)
		if whole {
			if err := wr.Flush(); err != nil {
				return err
			}
			_, payload, err := rd.readStoredBlock(i)
			if err != nil {
				return err
			}
			if err := wr.spliceBlock(b, payload); err != nil {
				return err
			}
			continue
		}
		if buf, err = rd.ReadBlock(i, buf); err != nil {
			return err
		}
		for j := range buf {
			s := &buf[j]
			if lo != 0 && s.TimeNs < lo {
				continue
			}
			if hi != 0 && s.TimeNs >= hi {
				continue
			}
			if core >= 0 && int(s.Core) != core {
				continue
			}
			if err := wr.Emit(s); err != nil {
				return err
			}
		}
	}
	return wr.Close()
}

// segmentCollector is the plan-mode sink: writer output accumulates
// into literal segments, spliceOut calls cut extents (coalescing
// adjacent ones).
type segmentCollector struct {
	segs []PlanSegment
	lit  []byte
	size int64
}

func (sc *segmentCollector) Write(p []byte) (int, error) {
	sc.lit = append(sc.lit, p...)
	sc.size += int64(len(p))
	return len(p), nil
}

func (sc *segmentCollector) splice(srcOff int64, n int) error {
	sc.flushLiteral()
	if last := len(sc.segs) - 1; last >= 0 && sc.segs[last].Data == nil &&
		sc.segs[last].SrcOff+sc.segs[last].Len == srcOff {
		sc.segs[last].Len += int64(n)
	} else {
		sc.segs = append(sc.segs, PlanSegment{SrcOff: srcOff, Len: int64(n)})
	}
	sc.size += int64(n)
	return nil
}

func (sc *segmentCollector) flushLiteral() {
	if len(sc.lit) > 0 {
		sc.segs = append(sc.segs, PlanSegment{Data: sc.lit})
		sc.lit = nil
	}
}
