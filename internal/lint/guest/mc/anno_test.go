package mc

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ultracomputer/internal/isa"
)

// TestExprLanguage pins the `;mc:` expression language: what parses, what
// it evaluates to, and what is rejected. Every row runs as a plain
// expression (invariant, final) and as an assert expression; assertOnly
// rows name pe or a register and parse only in the second. The context is
// fixed: 3 PEs, the evaluating PE is 1, M[a] = 10a+1 and r<N> = N.
func TestExprLanguage(t *testing.T) {
	ctx := &EvalCtx{
		NPEs: 3,
		PE:   1,
		Mem:  func(a int64) int64 { return 10*a + 1 },
		Reg:  func(r int) int64 { return int64(r) },
	}
	rows := []struct {
		src        string
		ok         bool // accepted (in asserts only, with assertOnly)
		assertOnly bool
		val        int64
		why        string
	}{
		// Every distinct expression in examples/asm, internal/coord/guest
		// and internal/lint/testdata.
		{src: "M[900] == 100*npes + npes*(npes-1)/2", ok: true, val: 0},
		{src: "M[802] == 0 && M[803] == 0", ok: true, val: 0},
		{src: "M[300] == 272 && M[200] >= 16", ok: true, val: 0},
		{src: "M[601] == 0 || M[600] == npes", ok: true, val: 0},
		{src: "M[602] == 0 || M[601] == npes", ok: true, val: 0},
		{src: "M[600] == npes && M[601] == npes && M[602] == npes", ok: true, val: 0},
		{src: "M[500] == npes", ok: true, val: 0},
		{src: "M[501] + M[502] + M[503] == npes*(npes-1)/2", ok: true, val: 0},
		{src: "M[420] == 0", ok: true, val: 0},
		{src: "M[410] == 4 && M[411] == 4 && M[421] == 4*(npes-1)", ok: true, val: 0},
		{src: "M[1] >= 0 && M[1] <= 1", ok: true, val: 0},
		{src: "M[0] == 1 && M[1] == 0 && M[2] == npes", ok: true, val: 0},
		{src: "M[0] == 0 && M[1] == 0 && M[2] == npes", ok: true, val: 0},
		{src: "M[102] == 42", ok: true, val: 0},
		{src: "r5 == 0", ok: true, assertOnly: true, val: 0},

		// Precedence, associativity, division by zero and literals.
		{src: "1 - 2 - 3", ok: true, val: -4},
		{src: "2 * 3 % 4", ok: true, val: 2},
		{src: "1 + 2 * 3", ok: true, val: 7},
		{src: "-2 * 3", ok: true, val: -6},
		{src: "- -3", ok: true, val: 3},
		{src: "--3", why: "(Go lexes -- as a decrement; write - -3)"},
		{src: "(1 < 2) < 3", ok: true, val: 1},
		{src: "0 || 1 && 0", ok: true, val: 0},
		{src: "M[M[1]]", ok: true, val: 111},
		{src: "7 / 0", ok: true, val: 0},
		{src: "7 % 0", ok: true, val: 0},
		{src: "0x10", ok: true, val: 16},
		{src: "010", ok: true, val: 8},
		{src: "0b101", ok: true, val: 5},
		{src: "1_000", ok: true, val: 1000},
		{src: "npes", ok: true, val: 3},
		{src: "r5", ok: true, assertOnly: true, val: 5},
		{src: "pe", ok: true, assertOnly: true, val: 1},

		// Rejected everywhere.
		{src: ""},
		{src: "+3"},
		{src: "!1"},
		{src: "1 & 2"},
		{src: "1 | 2"},
		{src: "1 << 2"},
		{src: "1 < 2 < 3"},
		{src: "M"},
		{src: "M[1"},
		{src: "M[0][1]"},
		{src: "1 +"},
		{src: "x"},
		{src: "1.5"},
		{src: "'a'"},
		{src: "npes(1)"},
		{src: "r32"},
		{src: "9223372036854775808"},
		{src: "1 // 2"},
		{src: "1 /* 2 */ + 3"},
		{src: "M[1]; 2"},
	}
	for _, row := range rows {
		for _, allowRegs := range []bool{false, true} {
			n, err := parseExpr(row.src, allowRegs)
			accept := row.ok && (allowRegs || !row.assertOnly)
			switch {
			case accept && err != nil:
				t.Errorf("parseExpr(%q, %v): %v, want %d %s", row.src, allowRegs, err, row.val, row.why)
			case !accept && err == nil:
				t.Errorf("parseExpr(%q, %v) = %d, want an error %s", row.src, allowRegs, n.eval(ctx), row.why)
			case accept:
				if got := n.eval(ctx); got != row.val {
					t.Errorf("parseExpr(%q, %v) = %d, want %d %s", row.src, allowRegs, got, row.val, row.why)
				}
			}
		}
	}
}

// TestReadmeAnnotations assembles README's `;mc:` example block, with
// the labels its regions name, and parses every directive in it: each is
// followed by an assembler comment, which ends the directive.
func TestReadmeAnnotations(t *testing.T) {
	readme, err := os.ReadFile("../../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "The `;mc:` annotation language")
	_, block, _ = strings.Cut(block, "```asm\n")
	block, _, ok := strings.Cut(block, "```")
	if !ok {
		t.Fatal("README has no ;mc: example block")
	}
	src := block + "wcs:    li r1, 1\nwend:   li r1, 2\nrgo:    li r1, 3\nrend:   halt\n"
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseAnnotations(src, prog)
	if err != nil {
		t.Fatal(err)
	}
	var asserts int
	for _, ps := range a.Asserts {
		asserts += len(ps)
	}
	got := []int{len(a.Invariants), len(a.Finals), len(a.Regions), len(a.NoConcur), a.Bound, asserts}
	if want := []int{1, 1, 2, 1, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("invariants, finals, regions, noconcur, bound, asserts = %v, want %v", got, want)
	}
}

// regionsSrc declares n regions: n-1 dummies, then zz over the two li
// instructions, which no two PEs may occupy at once. Region names sort
// in bit order, so zz takes the last bit.
func regionsSrc(n int) string {
	var b strings.Builder
	for i := range n - 1 {
		fmt.Fprintf(&b, ";mc: region d%02d s e\n", i)
	}
	b.WriteString(";mc: region zz s e\n;mc: noconcur zz zz\n        nop\ns:      li r1, 1\n        li r2, 2\ne:      halt\n")
	return b.String()
}

// lastPEStores is the program in which only the highest-numbered PE
// moves shared memory, so the counterexample's schedule ends on it.
const lastPEStores = `;mc: invariant M[7] == 0
        rdpe r1
        rdnp r2
        addi r2, r2, -1
        bne  r1, r2, done
        li   r3, 1
        sts  r3, 7(r0)
done:   halt
`

// TestCheckLimits pins the checker's input limits: the PE count a
// schedule step can name and the region count a pc's mask can hold. At
// each boundary the check still runs and finds its violation.
func TestCheckLimits(t *testing.T) {
	tests := []struct {
		name     string
		src      string
		pes      int
		wantErr  bool
		errMsg   string
		wantKind Kind
	}{
		{name: "0 PEs", src: lastPEStores, pes: 0, wantErr: true, errMsg: "PEs must be >= 1"},
		{name: "127 PEs", src: lastPEStores, pes: 127, wantKind: KindInvariant},
		{name: "128 PEs", src: lastPEStores, pes: 128, wantErr: true, errMsg: "PEs must be <= 127, got 128"},
		{name: "64 regions", src: regionsSrc(64), pes: 2, wantKind: KindNoConcur},
		{name: "65 regions", src: regionsSrc(65), pes: 2, wantErr: true, errMsg: "line 65: region zz: more than 64 regions"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := CheckSource(tt.src, Options{PEs: tt.pes})
			if tt.wantErr {
				if err == nil || !strings.Contains(err.Error(), tt.errMsg) {
					t.Fatalf("err = %v, want one containing %q", err, tt.errMsg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if v := res.Violation; v == nil || v.Kind != tt.wantKind {
				t.Fatalf("violation %+v, want kind %s", v, tt.wantKind)
			}
		})
	}
}
