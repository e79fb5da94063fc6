package machine

import (
	"slices"
	"testing"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
)

// runCachedAsm assembles src and runs it to completion on every PE of a
// 16-port machine, each core with a private 8-set, 2-way cache of 4-word
// blocks.
func runCachedAsm(t *testing.T, src string, pes int) *Machine {
	t.Helper()
	return runAsmWithCache(t, cfg16(), cache.Config{Sets: 8, Ways: 2, BlockWords: 4}, src, pes)
}

// runAsmWithCache is runCachedAsm on a given machine and cache shape.
func runAsmWithCache(t *testing.T, cfg Config, cc cache.Config, src string, pes int) *Machine {
	t.Helper()
	cfg.PEs = pes
	m, _, err := Load(cfg, isa.MustAssemble(src), LoadOptions{Cache: &cc})
	if err != nil {
		t.Fatal(err)
	}
	m.MustRun(10_000_000)
	return m
}

// TestCachedPrivateDataNoTraffic: a PE working entirely in cached private
// data generates central-memory traffic only for the initial block
// fetches and the final flush — repeated hits are free of network load.
func TestCachedPrivateDataNoTraffic(t *testing.T) {
	m := runCachedAsm(t, `
	li   r1, 0          ; round
	li   r2, 50
	li   r5, 8
round:	beq  r1, r2, fin
	li   r3, 0          ; word
word:	beq  r3, r5, next
	clds r4, 0(r3)
	addi r4, r4, 1
	csts r4, 0(r3)
	addi r3, r3, 1
	jmp  word
next:	addi r1, r1, 1
	jmp  round
fin:	li   r6, 0
	cflu r6, r5         ; write M[0..8) back, wait for the acks
	halt
`, 1)
	for a := int64(0); a < 8; a++ {
		if got := m.ReadShared(a); got != 50 {
			t.Fatalf("M[%d] = %d, want 50", a, got)
		}
	}
	// 800 cached accesses; network traffic is 2 block fetches (8 loads)
	// plus 8 flush write-backs, far below one request per access.
	if r := m.Report(); r.SharedRefs > 40 {
		t.Fatalf("shared refs = %d; cache not absorbing traffic", r.SharedRefs)
	}
}

// TestFlushPublishesToOtherPE follows the §3.4 task-spawn protocol:
// PE 0 treats a region as private and cached, then flushes and sets a
// flag; PE 1 (uncached) reads the flushed values.
func TestFlushPublishesToOtherPE(t *testing.T) {
	m := runCachedAsm(t, `
	rdpe r1
	li   r5, 16
	li   r6, 1000       ; the flag
	bne  r1, r0, reader
	li   r3, 0
wr:	beq  r3, r5, pub
	mul  r4, r3, r3
	csts r4, 0(r3)      ; M[a] = a*a, cached
	addi r3, r3, 1
	jmp  wr
pub:	li   r7, 0
	cflu r7, r5         ; flush waits for write-back completion
	li   r2, 1
	sts  r2, 0(r6)
	halt
reader:	lds  r2, 0(r6)
	beq  r2, r0, reader
	li   r3, 0
rd:	beq  r3, r5, done
	lds  r4, 0(r3)
	sts  r4, 2000(r3)
	addi r3, r3, 1
	jmp  rd
done:	halt
`, 2)
	for a := int64(0); a < 16; a++ {
		if got := m.ReadShared(2000 + a); got != a*a {
			t.Fatalf("PE 1 read M[%d] = %d, want %d", a, got, a*a)
		}
	}
}

// TestReleaseDropsDeadData: released dirty lines must not generate
// write-back traffic nor reach central memory (§3.4: private variables
// of an exited block).
func TestReleaseDropsDeadData(t *testing.T) {
	m := runCachedAsm(t, `
	li   r2, 777
	li   r5, 8
	li   r3, 0
wr:	beq  r3, r5, rel
	csts r2, 0(r3)
	addi r3, r3, 1
	jmp  wr
rel:	li   r6, 0
	crel r6, r5
	cflu r6, r5         ; nothing left to flush
	halt
`, 1)
	for a := int64(0); a < 8; a++ {
		if got := m.ReadShared(a); got != 0 {
			t.Fatalf("released data leaked to M[%d] = %d", a, got)
		}
	}
}

// TestReadOnlySharingPeriod caches shared data during a read-only phase
// on four PEs, then releases and re-reads after a writer updates — the
// §3.4 stale-data protocol. Each barrier is a fresh counter every PE
// increments and then waits on until it reaches the PE count; PE 0 reads
// each of its stores back before arriving, which waits for the store
// (one outstanding request per location).
func TestReadOnlySharingPeriod(t *testing.T) {
	const pes = 4
	m := runCachedAsm(t, `
	rdpe r1
	rdnp r20
	li   r2, 1
	li   r9, 0          ; the shared cell
	li   r13, 4
	bne  r1, r0, b0
	li   r3, 10
	sts  r3, 0(r9)
	lds  r3, 0(r9)
b0:	li   r10, 50
	faa  r11, 0(r10), r2
s0:	lds  r11, 0(r10)
	bne  r11, r20, s0
	clds r12, 0(r9)     ; read-only period: everyone may cache the value
	li   r10, 51
	faa  r11, 0(r10), r2
s1:	lds  r11, 0(r10)
	bne  r11, r20, s1
	crel r9, r13        ; end of the period: release before anyone writes
	li   r10, 52
	faa  r11, 0(r10), r2
s2:	lds  r11, 0(r10)
	bne  r11, r20, s2
	bne  r1, r0, b3
	li   r3, 20
	sts  r3, 0(r9)      ; uncached update
	lds  r3, 0(r9)
b3:	li   r10, 53
	faa  r11, 0(r10), r2
s3:	lds  r11, 0(r10)
	bne  r11, r20, s3
	clds r14, 0(r9)     ; re-read through the cache: must see the update
	add  r15, r1, r1
	sts  r12, 100(r15)
	sts  r14, 101(r15)
	halt
`, pes)
	for p := int64(0); p < pes; p++ {
		v1 := m.ReadShared(100 + p*2)
		v2 := m.ReadShared(100 + p*2 + 1)
		if v1 != 10 || v2 != 20 {
			t.Fatalf("PE %d saw (%d, %d), want (10, 20)", p, v1, v2)
		}
	}
}

// TestCacheEvictionWriteBack: dirty lines evicted by capacity pressure
// reach central memory without an explicit flush.
func TestCacheEvictionWriteBack(t *testing.T) {
	small := cache.Config{Sets: 2, Ways: 1, BlockWords: 2} // 4 words total
	m := runAsmWithCache(t, Config{Net: network.Config{K: 2, Stages: 3, Combining: true}, Hashing: true}, small, `
	li   r1, 0
	li   r2, 64
loop:	beq  r1, r2, fin
	addi r3, r1, 1
	csts r3, 0(r1)      ; constant eviction pressure
	addi r1, r1, 1
	jmp  loop
fin:	li   r4, 0
	cflu r4, r2
	halt
`, 1)
	for a := int64(0); a < 64; a++ {
		if got := m.ReadShared(a); got != a+1 {
			t.Fatalf("M[%d] = %d, want %d", a, got, a+1)
		}
	}
}

// TestFlushIssueOrder pins the order in which cflu of a fully dirty cache
// issues its stores: set by set, way by way within a set, word by word
// within a line — not address order. The guest stores each address's own
// value from the top of a 32-word region down, so a 4-set, 2-way cache
// of 4-word blocks fills the sets' way 0 with the upper four blocks and
// way 1 with the lower four; nothing is evicted, and every store the PE
// injects after the stores is the flush's, carrying its address as its
// operand.
func TestFlushIssueOrder(t *testing.T) {
	cfg := cfg16()
	cfg.PEs = 1
	m, _, err := Load(cfg, isa.MustAssemble(`
	li   r1, 1055
	li   r2, 1023
fill:	csts r1, 0(r1)
	addi r1, r1, -1
	bne  r1, r2, fill
	li   r3, 1024
	li   r4, 1056
	cflu r3, r4
	halt
`), LoadOptions{Cache: &cache.Config{Sets: 4, Ways: 2, BlockWords: 4}})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(1 << 12)
	m.Observe(prof.Observers{Probe: rec})
	m.MustRun(1_000_000)
	var got []int64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindInject && ev.Op == msg.Store {
			got = append(got, ev.Value)
		}
	}
	var want []int64
	for set := int64(0); set < 4; set++ {
		for _, block := range []int64{260 + set, 256 + set} { // way 0, way 1
			for w := int64(0); w < 4; w++ {
				want = append(want, block*4+w)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cflu issued stores to\n%v\nwant\n%v", got, want)
	}
	for _, a := range want {
		if v := m.ReadShared(a); v != a {
			t.Fatalf("M[%d] = %d after the flush, want %d", a, v, a)
		}
	}
}
