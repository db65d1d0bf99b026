package blas_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	tsqrcp "repro"
	"repro/dist"
	"repro/internal/blas"
	"repro/mat"
	"repro/testmat"
)

// factorBits is what one entry point returned: Q, R and the pivots.
type factorBits struct {
	q, r *mat.Dense
	perm mat.Perm
}

// runEntryPoints factors a (stored at path) through every public entry
// point whose time the AVX loops own: Engine.QRCP at widths 1, 2 and 8,
// QRCPFile with Q streamed to a file, and dist.IteCholQRCP on three
// ranks.
func runEntryPoints(t *testing.T, a *mat.Dense, path string) map[string]factorBits {
	t.Helper()
	out := make(map[string]factorBits)
	for _, w := range []int{1, 2, 8} {
		f, err := tsqrcp.NewEngine(w).QRCP(a, nil)
		if err != nil {
			t.Fatalf("Engine.QRCP width %d: %v", w, err)
		}
		out[fmt.Sprintf("Engine.QRCP w=%d", w)] = factorBits{f.Q, f.R, f.Perm}
	}

	qPath := filepath.Join(t.TempDir(), "q.tsqrmat")
	f, err := tsqrcp.QRCPFile(path, &tsqrcp.FileOptions{PanelRows: 640, QPath: qPath})
	if err != nil {
		t.Fatalf("QRCPFile: %v", err)
	}
	q, err := mat.ReadBinaryFile(qPath)
	if err != nil {
		t.Fatal(err)
	}
	out["QRCPFile"] = factorBits{q, f.R, f.Perm}

	const p = 3
	layout := dist.Layout{M: a.Rows, P: p}
	res := make([]*dist.QRCPResult, p)
	errs := make([]error, p)
	dist.Run(p, func(c dist.Comm) {
		lo, hi := layout.RowRange(c.Rank())
		res[c.Rank()], errs[c.Rank()] = dist.IteCholQRCP(c, a.RowSlice(lo, hi).Clone(), tsqrcp.DefaultPivotTol)
	})
	qd := mat.NewDense(a.Rows, a.Cols)
	for rank, r := range res {
		if errs[rank] != nil {
			t.Fatalf("dist.IteCholQRCP rank %d: %v", rank, errs[rank])
		}
		lo, hi := layout.RowRange(rank)
		qd.RowSlice(lo, hi).Copy(r.QLocal)
	}
	out["dist.IteCholQRCP"] = factorBits{qd, res[0].R, res[0].Perm}
	return out
}

// TestAVXEndToEndBits requires every entry point to return the same Q, R
// and pivot bits with the AVX inner loops on as with them off, on
// rank-deficient inputs that take several pivoting iterations (and so the
// fused pass) with row counts off the 4-row grid.
func TestAVXEndToEndBits(t *testing.T) {
	if !blas.HaveAVX {
		t.Skip("host lacks AVX: the vector path cannot run")
	}
	for _, sh := range []struct{ m, n, r int }{{5003, 37, 29}, {4099, 64, 48}} {
		rng := rand.New(rand.NewSource(int64(sh.m + sh.n)))
		a := testmat.Generate(rng, sh.m, sh.n, sh.r, 1e-10)
		path := filepath.Join(t.TempDir(), "a.tsqrmat")
		if err := a.WriteBinaryFile(path); err != nil {
			t.Fatal(err)
		}
		run := func(on bool) map[string]factorBits {
			defer blas.SetAVX(on)()
			return runEntryPoints(t, a, path)
		}
		want, got := run(false), run(true)
		for name, w := range want {
			g := got[name]
			label := fmt.Sprintf("%d×%d %s", sh.m, sh.n, name)
			for j := range w.perm {
				if g.perm[j] != w.perm[j] {
					t.Fatalf("%s: Perm[%d] = %d with AVX, %d without", label, j, g.perm[j], w.perm[j])
				}
			}
			sameFactorBits(t, label+" R", g.r, w.r)
			sameFactorBits(t, label+" Q", g.q, w.q)
		}
	}
}

// sameFactorBits fails unless got and want agree bit for bit.
func sameFactorBits(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %d×%d with AVX, %d×%d without", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s[%d,%d]: %x with AVX, %x without", label, i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}
