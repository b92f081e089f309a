package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	if Logistic.String() != "logistic" || Squared.String() != "squared" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string")
	}
}

func TestParseKind(t *testing.T) {
	k, err := ParseKind("logistic")
	if err != nil || k != Logistic {
		t.Fatal("parse logistic")
	}
	k, err = ParseKind("squared")
	if err != nil || k != Squared {
		t.Fatal("parse squared")
	}
	if _, err := ParseKind("hinge"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Kind(42))
}

func TestSigmoid(t *testing.T) {
	cases := map[float64]float64{
		0:    0.5,
		100:  1,
		-100: 0,
	}
	for x, want := range cases {
		if got := Sigmoid(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("Sigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	// symmetry: sigmoid(-x) = 1 - sigmoid(x)
	for _, x := range []float64{0.1, 1, 5, 37} {
		if d := Sigmoid(-x) + Sigmoid(x) - 1; math.Abs(d) > 1e-12 {
			t.Errorf("sigmoid symmetry violated at %v: %v", x, d)
		}
	}
}

func TestLogisticLossValues(t *testing.T) {
	f := New(Logistic)
	// pred=0 => p=0.5 => loss = ln 2 for either label
	if got := f.Loss(1, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("loss(1,0) = %v, want ln2", got)
	}
	if got := f.Loss(0, 0); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("loss(0,0) = %v, want ln2", got)
	}
	// confident correct prediction: near-zero loss
	if got := f.Loss(1, 50); got > 1e-10 {
		t.Errorf("loss(1,50) = %v, want ~0", got)
	}
	// confident wrong prediction: ~|pred|
	if got := f.Loss(0, 50); math.Abs(got-50) > 1e-6 {
		t.Errorf("loss(0,50) = %v, want ~50", got)
	}
	// numerically stable at extremes
	for _, p := range []float64{-1000, 1000} {
		for _, y := range []float64{0, 1} {
			if v := f.Loss(y, p); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("loss(%v,%v) = %v not finite", y, p, v)
			}
		}
	}
}

func TestLogisticGradientsMatchNumerical(t *testing.T) {
	f := New(Logistic)
	const h = 1e-5
	for _, y := range []float64{0, 1} {
		for _, pred := range []float64{-3, -0.5, 0, 0.7, 2.5} {
			g, hess := f.Gradients(y, pred)
			numG := (f.Loss(y, pred+h) - f.Loss(y, pred-h)) / (2 * h)
			if math.Abs(g-numG) > 1e-6 {
				t.Errorf("y=%v pred=%v: g=%v, numerical %v", y, pred, g, numG)
			}
			numH := (f.Loss(y, pred+h) - 2*f.Loss(y, pred) + f.Loss(y, pred-h)) / (h * h)
			if math.Abs(hess-numH) > 1e-4 {
				t.Errorf("y=%v pred=%v: h=%v, numerical %v", y, pred, hess, numH)
			}
		}
	}
}

func TestLogisticHessianFloor(t *testing.T) {
	f := New(Logistic)
	_, h := f.Gradients(1, 10000)
	if h <= 0 {
		t.Fatalf("hessian %v must stay positive", h)
	}
}

func TestSquaredLoss(t *testing.T) {
	f := New(Squared)
	if got := f.Loss(3, 5); got != 2 {
		t.Errorf("loss(3,5) = %v, want 2", got)
	}
	g, h := f.Gradients(3, 5)
	if g != 2 || h != 1 {
		t.Errorf("gradients = %v,%v, want 2,1", g, h)
	}
	const eps = 1e-6
	numG := (f.Loss(3, 5+eps) - f.Loss(3, 5-eps)) / (2 * eps)
	if math.Abs(numG-g) > 1e-4 {
		t.Errorf("numerical gradient %v vs %v", numG, g)
	}
}

func TestGradientDirectionProperty(t *testing.T) {
	// property: for logistic loss, gradient sign pushes prediction toward
	// the label; hessian is always in (0, 0.25].
	f := New(Logistic)
	check := func(predRaw float64, label bool) bool {
		pred := math.Mod(predRaw, 20)
		if math.IsNaN(pred) {
			return true
		}
		y := 0.0
		if label {
			y = 1.0
		}
		g, h := f.Gradients(y, pred)
		if h <= 0 || h > 0.25+1e-12 {
			return false
		}
		if y == 1 && g > 0 && Sigmoid(pred) <= 1 && g >= 1 {
			return false
		}
		// g = p - y in (-1, 1)
		return g > -1 && g < 1
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeanLoss(t *testing.T) {
	f := New(Squared)
	got := MeanLoss(f, []float32{1, 2}, []float64{1, 4})
	if got != 1 { // (0 + 2)/2
		t.Fatalf("MeanLoss = %v, want 1", got)
	}
	if MeanLoss(f, nil, nil) != 0 {
		t.Fatal("empty MeanLoss should be 0")
	}
}

func TestErrorRate(t *testing.T) {
	labels := []float32{1, 0, 1, 0}
	preds := []float64{2.0, -1.0, -0.5, 3.0} // correct, correct, wrong, wrong
	if got := ErrorRate(labels, preds); got != 0.5 {
		t.Fatalf("ErrorRate = %v, want 0.5", got)
	}
	if ErrorRate(nil, nil) != 0 {
		t.Fatal("empty ErrorRate should be 0")
	}
}

func TestRMSE(t *testing.T) {
	got := RMSE([]float32{0, 0}, []float64{3, 4})
	want := math.Sqrt(12.5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	labels := []float32{0, 0, 1, 1}
	if auc, err := AUC(labels, []float64{0.1, 0.2, 0.8, 0.9}); err != nil || auc != 1 {
		t.Fatalf("perfect AUC = %v, %v", auc, err)
	}
	if auc, _ := AUC(labels, []float64{0.9, 0.8, 0.2, 0.1}); auc != 0 {
		t.Fatalf("inverted AUC = %v, want 0", auc)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 20000
	labels := make([]float32, n)
	preds := make([]float64, n)
	for i := range labels {
		if rng.Float64() < 0.5 {
			labels[i] = 1
		}
		preds[i] = rng.Float64()
	}
	auc, err := AUC(labels, preds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.02 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestAUCTies(t *testing.T) {
	// all predictions identical -> AUC must be exactly 0.5 by midranks
	labels := []float32{0, 1, 0, 1, 1}
	preds := []float64{3, 3, 3, 3, 3}
	auc, err := AUC(labels, preds)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("all-ties AUC = %v, want 0.5", auc)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float32{1, 1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("single-class AUC should error")
	}
	if _, err := AUC([]float32{1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// TestAUCNaNPredictionIsAnError: a NaN equals no score, so the midrank tie
// loop never advanced past one. AUC runs under a deadline so a hang fails
// the test instead of the package.
func TestAUCNaNPredictionIsAnError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := AUC([]float32{0, 1, 0, 1}, []float64{0.2, math.NaN(), 0.1, 0.7})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AUC with a NaN prediction returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AUC with a NaN prediction did not return")
	}
}

func TestAUCInvarianceToMonotoneTransform(t *testing.T) {
	labels := []float32{0, 1, 0, 1, 0, 1, 1, 0}
	preds := []float64{-2, 0.5, -1, 2, 0.1, 0.4, 3, -0.2}
	a1, err := AUC(labels, preds)
	if err != nil {
		t.Fatal(err)
	}
	trans := make([]float64, len(preds))
	for i, p := range preds {
		trans[i] = Sigmoid(p) // strictly monotone
	}
	a2, err := AUC(labels, trans)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1-a2) > 1e-12 {
		t.Fatalf("AUC not invariant: %v vs %v", a1, a2)
	}
}
