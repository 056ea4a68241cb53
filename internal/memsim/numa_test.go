package memsim

import "testing"

func TestNUMAHomeAssignment(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 20},
		DRAMConfig{TailProb: -1})
	if d.HomeNode(0) != 0 {
		t.Error("addr 0 not on node 0")
	}
	if d.HomeNode(1<<20) != 1 {
		t.Error("second MiB not on node 1")
	}
	if d.HomeNode(2<<20) != 0 {
		t.Error("third MiB not back on node 0")
	}
}

func TestNUMASingleNodeNeverRemote(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 1}, DRAMConfig{TailProb: -1})
	for addr := uint64(0); addr < 100<<30; addr += 10 << 30 {
		if _, remote := d.Access(0, 0, addr, 64, false); remote {
			t.Fatal("remote access on a single-node domain")
		}
	}
	if d.RemoteFraction() != 0 {
		t.Error("remote fraction nonzero")
	}
}

func TestNUMARemotePenalty(t *testing.T) {
	cfg := NUMAConfig{Nodes: 2, InterconnectLatency: 100, InterleaveBytes: 1 << 20}
	d := NewNUMADomain(cfg, DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 64, TailProb: -1})

	local, isRemote := d.Access(1000, 0, 0, 64, false)
	if isRemote {
		t.Fatal("node-0 access to node-0 memory flagged remote")
	}
	remote, isRemote2 := d.Access(1000, 1, 0, 64, false)
	if !isRemote2 {
		t.Fatal("node-1 access to node-0 memory not flagged remote")
	}
	if remote.Latency < local.Latency+100 {
		t.Errorf("remote latency %d not >= local %d + interconnect 100",
			remote.Latency, local.Latency)
	}
	l, r := d.Traffic()
	if l != 1 || r != 1 {
		t.Errorf("traffic = %d local, %d remote", l, r)
	}
	if d.RemoteFraction() != 0.5 {
		t.Errorf("remote fraction = %v", d.RemoteFraction())
	}
}

func TestNUMAIndependentNodeQueues(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2, InterleaveBytes: 1 << 20},
		DRAMConfig{BaseLatency: 100, PeakBytesPerCycle: 1, TailProb: -1})
	// Saturate node 0 only.
	for i := 0; i < 1000; i++ {
		d.Access(0, 0, 0, 64, false)
	}
	// Node 1 stays unloaded.
	res, _ := d.Access(0, 1, 1<<20, 64, false)
	if res.WaitCycles != 0 {
		t.Errorf("node 1 inherited node 0's queue: wait=%d", res.WaitCycles)
	}
}

func TestNUMAResetAndTotals(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 2}, DRAMConfig{TailProb: -1})
	d.Access(0, 0, 0, 64, false)
	d.Access(0, 0, 1<<30, 64, true)
	if d.TotalBytes() != 128 {
		t.Errorf("total bytes = %d", d.TotalBytes())
	}
	d.Reset()
	if d.TotalBytes() != 0 || d.RemoteFraction() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestNUMADefaults(t *testing.T) {
	d := NewNUMADomain(NUMAConfig{Nodes: 5}, DRAMConfig{})
	if len(d.Nodes()) != 2 {
		t.Errorf("nodes clamped to %d, want 2", len(d.Nodes()))
	}
	d1 := NewNUMADomain(NUMAConfig{}, DRAMConfig{})
	if len(d1.Nodes()) != 1 {
		t.Errorf("default nodes = %d, want 1", len(d1.Nodes()))
	}
}

// A one-node domain is the single-socket machine's memory: its device
// must draw the same latency stream as a DRAM built from the same
// config, or every single-socket output would shift.
func TestNUMASingleNodeMatchesDRAM(t *testing.T) {
	cfg := DRAMConfig{BaseLatency: 150, PeakBytesPerCycle: 1, Seed: 3}
	d := NewNUMADomain(NUMAConfig{}, cfg)
	ref := NewDRAM(cfg)
	for i := 0; i < 2000; i++ {
		got, _ := d.Access(0, 0, uint64(i)*64, 64, false)
		if want := ref.Access(0, 64, false); got != want {
			t.Fatalf("access %d: domain %+v, DRAM %+v", i, got, want)
		}
	}
}
