package main

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/mat"
	"repro/testmat"
)

// matSpec is a seeded test matrix A = G·diag(σ)·Vᵀ with the paper's
// σ-profile (testmat.SigmaProfile) and a Haar-random orthogonal V. G has
// independent standard normal entries drawn from a counter-based stream
// keyed by (seed, row), so any row panel is generated on its own, in any
// order, on any goroutine, with the same bits. That makes the generator
// cheap (one m×n×n GEMM plus m·n normals, no m-sized orthogonalization
// as in testmat.Generate) and lets the out-of-core workload write its
// file panel by panel without ever holding A.
//
// V is the same for every seed (orientationSeed). The pivoting path
// follows V, so with V drawn per seed three seeds in twelve needed three
// Ite-CholQR-CP iterations on the tall matrix instead of four, and the
// work of a call changed with the seed by a quarter.
type matSpec struct {
	m, n int
	seed uint64
	mix  *mat.Dense // n×n diag(σ)·Vᵀ: a panel of A is G_panel·mix
}

// orientationSeed seeds V.
const orientationSeed = 1

// newMatSpec fixes the shape, numerical rank r and grading sigma of a
// seeded matrix.
func newMatSpec(seed uint64, m, n, r int, sigma float64) *matSpec {
	rng := rand.New(rand.NewSource(orientationSeed))
	v := testmat.RandomOrtho(rng, n, n)
	sv := testmat.SigmaProfile(n, r, sigma)
	mix := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			mix.Set(i, j, sv[i]*v.At(j, i))
		}
	}
	return &matSpec{m: m, n: n, seed: seed, mix: mix}
}

// splitmix64 is the SplitMix64 finalizer: a bijective mix that turns a
// counter into a well-distributed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps 53 random bits to (0, 1].
func unit(x uint64) float64 { return float64(x>>11+1) / (1 << 53) }

// fillGaussian writes standard normal rows [row0, row0+g.Rows) of G into
// g by Box–Muller over the (seed, row) stream.
func (s *matSpec) fillGaussian(g *mat.Dense, row0 int) {
	for i := 0; i < g.Rows; i++ {
		ctr := splitmix64(s.seed ^ splitmix64(uint64(row0+i)))
		row := g.Data[i*g.Stride : i*g.Stride+g.Cols]
		for j := 0; j < len(row); j += 2 {
			ctr++
			u1 := unit(splitmix64(ctr))
			ctr++
			u2 := unit(splitmix64(ctr))
			r := math.Sqrt(-2 * math.Log(u1))
			sn, cs := math.Sincos(2 * math.Pi * u2)
			row[j] = r * cs
			if j+1 < len(row) {
				row[j+1] = r * sn
			}
		}
	}
}

// genPanelRows is the row height of one generated panel.
const genPanelRows = 8192

// panel writes rows [row0, row0+dst.Rows) of A into dst, using g
// (at least dst.Rows×n) as scratch and e for the GEMM.
func (s *matSpec) panel(e *parallel.Engine, dst, g *mat.Dense, row0 int) {
	gp := g.Slice(0, dst.Rows, 0, s.n)
	s.fillGaussian(gp, row0)
	blas.Gemm(e, blas.NoTrans, blas.NoTrans, 1, gp, s.mix, 0, dst)
}

// dense generates all of A in memory, one panel per goroutine step on
// workers goroutines.
func (s *matSpec) dense(workers int) *mat.Dense {
	a := mat.NewDense(s.m, s.n)
	one := parallel.NewEngine(1)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := mat.NewDense(genPanelRows, s.n)
			for lo := range next {
				hi := min(lo+genPanelRows, s.m)
				s.panel(one, a.RowSlice(lo, hi), g, lo)
			}
		}()
	}
	for lo := 0; lo < s.m; lo += genPanelRows {
		next <- lo
	}
	close(next)
	wg.Wait()
	return a
}

// writeFile streams A to path in the binary matrix format, one panel at
// a time, holding only one panel of it in memory.
func (s *matSpec) writeFile(path string) error {
	w, err := mat.NewBinaryWriterFile(path, s.m, s.n)
	if err != nil {
		return err
	}
	buf := mat.NewDense(genPanelRows, s.n)
	g := mat.NewDense(genPanelRows, s.n)
	for lo := 0; lo < s.m; lo += genPanelRows {
		hi := min(lo+genPanelRows, s.m)
		p := buf.Slice(0, hi-lo, 0, s.n)
		s.panel(nil, p, g, lo)
		if err := w.WriteRows(p); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
