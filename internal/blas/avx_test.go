package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/mat"
)

// setAVX sets the AVX switch for the rest of the test.
func setAVX(t *testing.T, on bool) {
	t.Helper()
	old := useAVX
	useAVX = on
	t.Cleanup(func() { useAVX = old })
}

// sameBitsOrNaN fails unless got and want agree bit for bit, treating any
// two NaNs as equal: the scalar and vector instructions may pick a
// different NaN payload or sign when more than one operand is NaN.
func sameBitsOrNaN(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g := got.Data[i*got.Stride+j]
			w := want.Data[i*want.Stride+j]
			if math.IsNaN(g) && math.IsNaN(w) {
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s[%d,%d]: %x (%g) with AVX, %x (%g) without",
					label, i, j, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
}

// avxCase is one kernel call on freshly generated inputs; it returns the
// matrices the call wrote, labelled, for comparison across the switch.
type avxCase struct {
	name string
	run  func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense
}

// avxInput draws an m×n operand, compact or as a strided view, optionally
// with a NaN and an ±Inf planted in it.
func avxInput(rng *rand.Rand, m, n int, strided, nonFinite bool) *mat.Dense {
	var a *mat.Dense
	if strided {
		a = randDenseStrided(rng, m, n)
	} else {
		a = randDense(rng, m, n)
	}
	if nonFinite {
		a.Set(rng.Intn(m), rng.Intn(n), math.NaN())
		a.Set(rng.Intn(m), rng.Intn(n), math.Inf(1-2*rng.Intn(2)))
	}
	return a
}

// randUpperAcc returns an n×n accumulator with a random upper triangle, so
// the accumulating kernels add into non-zero values.
func randUpperAcc(rng *rand.Rand, n int) *mat.Dense {
	acc := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			acc.Set(i, j, rng.NormFloat64())
		}
	}
	return acc
}

var avxCases = []avxCase{
	{"PermTrsmGramFused", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		b := avxInput(rng, m, n, strided, nonFinite)
		r := randUpperWellCond(rng, n)
		g := mat.NewDense(n, n)
		PermTrsmGramFused(e, b, randPerm(rng, n), r, g)
		return map[string]*mat.Dense{"B": b, "G": g}
	}},
	{"GramFixed", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		a := avxInput(rng, m, n, strided, nonFinite)
		w := mat.NewDense(n, n)
		GramFixed(e, w, a)
		return map[string]*mat.Dense{"W": w}
	}},
	{"GramPanelAcc", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		p := avxInput(rng, m, n, strided, nonFinite)
		acc := randUpperAcc(rng, n)
		GramPanelAcc(e, p, acc)
		return map[string]*mat.Dense{"acc": acc}
	}},
	{"FusedPanelPivot", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		p := avxInput(rng, m, n, strided, nonFinite)
		r := randUpperWellCond(rng, n)
		acc := randUpperAcc(rng, n)
		FusedPanelPivot(e, p, randPerm(rng, n), r, acc)
		return map[string]*mat.Dense{"panel": p, "acc": acc}
	}},
	{"TrsmRightUpperNoTrans", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		b := avxInput(rng, m, n, strided, nonFinite)
		TrsmRightUpperNoTrans(e, b, randUpperWellCond(rng, n))
		return map[string]*mat.Dense{"B": b}
	}},
	{"Gram", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		a := avxInput(rng, m, n, strided, nonFinite)
		w := mat.NewDense(n, n)
		Gram(e, w, a)
		return map[string]*mat.Dense{"W": w}
	}},
	{"SyrkUpperTrans", func(e *parallel.Engine, rng *rand.Rand, m, n int, strided, nonFinite bool) map[string]*mat.Dense {
		a := avxInput(rng, m, n, strided, nonFinite)
		c := randUpperAcc(rng, n)
		SyrkUpperTrans(e, -1.375, a, 0.5, c)
		return map[string]*mat.Dense{"C": c}
	}},
}

// TestAVXMatchesScalar runs every kernel with an AVX inner loop on the
// same inputs with the AVX switch off and on, and requires identical
// bits. The sweep covers every column count the 4-lane split treats
// differently (below, at and above a lane multiple, with and without a
// scalar tail), row counts off the 4-row quad grid, strided views,
// multi-slot fused passes, and engine widths that take the sequential and
// the parallel paths. n = 261 crosses syrkJBlock, so the tiled SYRK path
// runs too.
func TestAVXMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("host lacks AVX: the vector path cannot run")
	}
	setAVX(t, true)
	ns := []int{1, 2, 3, 4, 5, 7, 13, 37, 64, 65, 261}
	ms := []int{1, 6, 143, 4099}
	for _, kc := range avxCases {
		for _, n := range ns {
			for _, m := range ms {
				if n > 65 && m > 143 {
					continue // keep the wide case cheap
				}
				for _, strided := range []bool{false, true} {
					for _, nonFinite := range []bool{false, true} {
						for _, w := range []int{1, 2, 8} {
							label := fmt.Sprintf("%s m=%d n=%d strided=%v nonfinite=%v w=%d",
								kc.name, m, n, strided, nonFinite, w)
							seed := int64(1000*m + n)
							run := func(on bool) map[string]*mat.Dense {
								useAVX = on
								return kc.run(parallel.NewEngine(w), rand.New(rand.NewSource(seed)), m, n, strided, nonFinite)
							}
							want, got := run(false), run(true)
							for k := range want {
								sameBitsOrNaN(t, label+" "+k, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestAllocFreeBothPaths re-runs the pooled-workspace alloc-free checks
// with the AVX switch in each state: the vector routines take their
// coefficients through a pointer to a stack array, which must not move
// it to the heap.
func TestAllocFreeBothPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; alloc counts are meaningless")
	}
	states := []bool{false, true}
	if !haveAVX {
		states = states[:1] // the vector path cannot run on this host
	}
	for _, on := range states {
		t.Run(fmt.Sprintf("avx=%v", on), func(t *testing.T) {
			setAVX(t, on)
			TestGramLargeStillAllocFree(t)
			TestPermTrsmGramFusedSequentialAllocFree(t)
			testBackendAllocFree(t, "native")
		})
	}
}
