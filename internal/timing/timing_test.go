package timing

import (
	"math"
	"testing"
)

func TestDefaultMatchesPaperTables(t *testing.T) {
	p := Default()
	// Table 2.1.
	if p.ProcessorCycleNS != 150 || p.BackplaneCycleNS != 125 {
		t.Errorf("cycle times %v/%v", p.ProcessorCycleNS, p.BackplaneCycleNS)
	}
	if p.MemFirstWord != 3 || p.MemNextWord != 1 {
		t.Errorf("memory timing %d/%d", p.MemFirstWord, p.MemNextWord)
	}
	// Table 3.2.
	if p.FaultCycles != 1000 {
		t.Errorf("t_ds = %d, want 1000", p.FaultCycles)
	}
	if p.PageFlushCycles != 500 {
		t.Errorf("t_flush = %d, want 500", p.PageFlushCycles)
	}
	if p.DirtyMissCycles != 25 {
		t.Errorf("t_dm = %d, want 25", p.DirtyMissCycles)
	}
	if p.DirtyCheckCycles != 5 {
		t.Errorf("t_dc = %d, want 5", p.DirtyCheckCycles)
	}
}

func TestBlockFetchCycles(t *testing.T) {
	p := Default()
	// 32-byte block, 3 cycles to first word, 1 to each of the next 7.
	if got := p.BlockFetchCycles(); got != 10 {
		t.Errorf("BlockFetchCycles = %d, want 10", got)
	}
	if p.WriteBackCycles() != p.BlockFetchCycles() {
		t.Error("write-back should cost a block transfer")
	}
}

func TestPageFlushEstimateConsistent(t *testing.T) {
	// The paper's 500-cycle t_flush: 128 checks (~1 cycle each, with two
	// instructions of loop overhead folded in), 10% flushed at ~10 cycles.
	p := Default()
	perBlock := 128*(p.FlushCheckCycles+2) + 13*p.FlushBlockCycles
	if perBlock < 400 || perBlock > 650 {
		t.Errorf("per-block flush components imply %d cycles, inconsistent with t_flush=%d",
			perBlock, p.PageFlushCycles)
	}
}

func TestSeconds(t *testing.T) {
	p := Default()
	got := p.Seconds(1e9)
	if math.Abs(got-150) > 1e-9 {
		t.Errorf("1e9 cycles = %v s, want 150", got)
	}
}
