package ratlp

import (
	"math/big"
	"math/rand"
	"testing"

	"dmc/internal/lp"
)

func rats(vals ...int64) []*big.Rat {
	out := make([]*big.Rat, len(vals))
	for i, v := range vals {
		out[i] = Int(v)
	}
	return out
}

func TestSolveBasicMax(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18 → exact optimum 36 at (2,6).
	p := NewProblem(lp.Maximize, rats(3, 5))
	p.AddConstraint(rats(1, 0), lp.LE, Int(4))
	p.AddConstraint(rats(0, 2), lp.LE, Int(12))
	p.AddConstraint(rats(3, 2), lp.LE, Int(18))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.Cmp(Int(36)) != 0 {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if sol.X[0].Cmp(Int(2)) != 0 || sol.X[1].Cmp(Int(6)) != 0 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveExactFractions(t *testing.T) {
	// max x+y s.t. 3x+y ≤ 1, x+3y ≤ 1 → x=y=1/4, objective 1/2. The point
	// of ratlp: these come out as exact fractions, not 0.24999….
	p := NewProblem(lp.Maximize, rats(1, 1))
	p.AddConstraint(rats(3, 1), lp.LE, Int(1))
	p.AddConstraint(rats(1, 3), lp.LE, Int(1))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0].Cmp(Rat(1, 4)) != 0 || sol.X[1].Cmp(Rat(1, 4)) != 0 {
		t.Errorf("x = %v, want [1/4 1/4]", sol.X)
	}
	if sol.Objective.Cmp(Rat(1, 2)) != 0 {
		t.Errorf("objective = %v, want 1/2", sol.Objective)
	}
}

func TestSolveMinEquality(t *testing.T) {
	// min 2x+3y s.t. x+y = 1 → exact 2 at (1,0).
	p := NewProblem(lp.Minimize, rats(2, 3))
	p.AddConstraint(rats(1, 1), lp.EQ, Int(1))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || sol.Objective.Cmp(Int(2)) != 0 {
		t.Fatalf("got %v obj %v, want optimal 2", sol.Status, sol.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := NewProblem(lp.Maximize, rats(1))
	p.AddConstraint(rats(1), lp.GE, Int(5))
	p.AddConstraint(rats(1), lp.LE, Int(3))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := NewProblem(lp.Maximize, rats(1, 1))
	p.AddConstraint(rats(1, -1), lp.LE, Int(1))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestVacuousNilRHS(t *testing.T) {
	p := NewProblem(lp.Maximize, rats(1, 1))
	p.AddConstraint(rats(1, 0), lp.LE, nil) // blackhole-style unlimited row
	p.AddConstraint(rats(1, 1), lp.LE, Int(5))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective.Cmp(Int(5)) != 0 {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// max x s.t. -x ≤ -2 and x ≤ 7 → 7; x ≥ 2 enforced via flip.
	p := NewProblem(lp.Maximize, rats(1))
	p.AddConstraint(rats(-1), lp.LE, Int(-2))
	p.AddConstraint(rats(1), lp.LE, Int(7))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective.Cmp(Int(7)) != 0 {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
	// And minimize to hit the flipped GE bound exactly.
	p2 := NewProblem(lp.Minimize, rats(1))
	p2.AddConstraint(rats(-1), lp.LE, Int(-2))
	sol2, err := Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Objective.Cmp(Int(2)) != 0 {
		t.Errorf("objective = %v, want 2", sol2.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Problem{
		NewProblem(lp.Maximize, nil),
		{Sense: 0, Objective: rats(1)},
		func() *Problem {
			p := NewProblem(lp.Maximize, rats(1, 2))
			p.AddConstraint(rats(1), lp.LE, Int(1))
			return p
		}(),
		func() *Problem {
			p := NewProblem(lp.Maximize, rats(1))
			p.AddConstraint(rats(1), lp.GE, nil) // nil RHS on GE
			return p
		}(),
		func() *Problem {
			p := NewProblem(lp.Maximize, rats(1))
			p.Constraints = append(p.Constraints, Constraint{Coeffs: []*big.Rat{nil}, Rel: lp.LE, RHS: Int(1)})
			return p
		}(),
		{Sense: lp.Maximize, Objective: []*big.Rat{nil}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: Solve accepted invalid problem", i)
		}
	}
}

// TestAgreesWithFloatSolver cross-checks the exact solver against the float
// simplex on random bounded feasible LPs with small integer data.
func TestAgreesWithFloatSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		objI := make([]int64, n)
		fobj := make([]float64, n)
		robj := make([]*big.Rat, n)
		for j := range objI {
			objI[j] = int64(rng.Intn(11) - 5)
			fobj[j] = float64(objI[j])
			robj[j] = Int(objI[j])
		}
		fp := lp.NewProblem(lp.Maximize, fobj)
		rp := NewProblem(lp.Maximize, robj)
		for i := 0; i < m; i++ {
			fi := make([]float64, n)
			ri := make([]*big.Rat, n)
			for j := range fi {
				v := int64(rng.Intn(7) - 2)
				fi[j] = float64(v)
				ri[j] = Int(v)
			}
			rhs := int64(rng.Intn(20))
			fp.AddConstraint(fi, lp.LE, float64(rhs))
			rp.AddConstraint(ri, lp.LE, Int(rhs))
		}
		// Bounding box so both report Optimal.
		for j := 0; j < n; j++ {
			fi := make([]float64, n)
			ri := make([]*big.Rat, n)
			for k := range ri {
				ri[k] = Int(0)
			}
			fi[j] = 1
			ri[j] = Int(1)
			fp.AddConstraint(fi, lp.LE, 25)
			rp.AddConstraint(ri, lp.LE, Int(25))
		}
		fsol, err := lp.NewSolver().Solve(fp)
		if err != nil {
			t.Fatal(err)
		}
		rsol, err := Solve(rp)
		if err != nil {
			t.Fatal(err)
		}
		if fsol.Status != rsol.Status {
			t.Fatalf("trial %d: float %v vs exact %v", trial, fsol.Status, rsol.Status)
		}
		if rsol.Status != lp.Optimal {
			continue
		}
		exact, _ := rsol.Objective.Float64()
		if diff := fsol.Objective - exact; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: float obj %v vs exact %v", trial, fsol.Objective, exact)
		}
	}
}

func TestDegenerateTermination(t *testing.T) {
	// Beale's cycling example in exact arithmetic: Bland must terminate.
	p := NewProblem(lp.Maximize, []*big.Rat{Rat(3, 4), Int(-150), Rat(1, 50), Int(-6)})
	p.AddConstraint([]*big.Rat{Rat(1, 4), Int(-60), Rat(-1, 25), Int(9)}, lp.LE, Int(0))
	p.AddConstraint([]*big.Rat{Rat(1, 2), Int(-90), Rat(-1, 50), Int(3)}, lp.LE, Int(0))
	p.AddConstraint(rats(0, 0, 1, 0), lp.LE, Int(1))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || sol.Objective.Cmp(Rat(1, 20)) != 0 {
		t.Fatalf("got %v obj %v, want optimal 1/20", sol.Status, sol.Objective)
	}
}

func TestValueHelper(t *testing.T) {
	p := NewProblem(lp.Maximize, rats(2, 3))
	v := p.Value([]*big.Rat{Rat(1, 2), Rat(1, 3)})
	if v.Cmp(Int(2)) != 0 {
		t.Errorf("Value = %v, want 2", v)
	}
}

func TestRedundantEqualities(t *testing.T) {
	p := NewProblem(lp.Maximize, rats(1, 1))
	p.AddConstraint(rats(1, 1), lp.EQ, Int(1))
	p.AddConstraint(rats(2, 2), lp.EQ, Int(2))
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || sol.Objective.Cmp(Int(1)) != 0 {
		t.Fatalf("got %v obj %v, want optimal 1", sol.Status, sol.Objective)
	}
}
