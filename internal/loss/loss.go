// Package loss provides the differentiable objectives GBDT trains against —
// logistic loss for binary classification and squared loss for regression —
// together with the evaluation metrics used by the paper (classification
// error, log loss, RMSE, AUC). Losses expose first- and second-order
// gradients (g_i, h_i) as required by the second-order objective of §2.2.
package loss

import (
	"fmt"
	"math"
)

// Kind selects a loss function.
type Kind int

const (
	// Logistic is binary cross-entropy on labels in {0,1}; the model's raw
	// prediction is a logit. g = p - y, h = p(1-p).
	Logistic Kind = iota
	// Squared is ½(y - ŷ)²; g = ŷ - y, h = 1.
	Squared
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Logistic:
		return "logistic"
	case Squared:
		return "squared"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is one of the loss kinds New accepts.
func (k Kind) Valid() bool { return k == Logistic || k == Squared }

// ParseKind converts a string ("logistic" or "squared") to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "logistic":
		return Logistic, nil
	case "squared":
		return Squared, nil
	}
	return 0, fmt.Errorf("loss: unknown kind %q", s)
}

// Func computes per-instance losses and gradients. Implementations are
// stateless and safe for concurrent use.
type Func interface {
	// Loss returns l(y, pred) where pred is the raw model output (a logit
	// for classification).
	Loss(y, pred float64) float64
	// Gradients returns the first- and second-order gradients of the loss
	// with respect to pred.
	Gradients(y, pred float64) (g, h float64)
	// Kind reports which loss this is.
	Kind() Kind
}

// New returns the Func for a Kind. It panics on a Kind that is not Valid.
func New(k Kind) Func {
	switch k {
	case Logistic:
		return logisticLoss{}
	case Squared:
		return squaredLoss{}
	default:
		panic(fmt.Sprintf("loss: unknown kind %d", int(k)))
	}
}

type logisticLoss struct{}

func (logisticLoss) Kind() Kind { return Logistic }

// Sigmoid is the standard logistic function, numerically stable for large
// |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func (logisticLoss) Loss(y, pred float64) float64 {
	// -[y log p + (1-y) log(1-p)] computed stably from the logit:
	// log(1+exp(pred)) - y*pred.
	var lse float64
	if pred > 0 {
		lse = pred + math.Log1p(math.Exp(-pred))
	} else {
		lse = math.Log1p(math.Exp(pred))
	}
	return lse - y*pred
}

func (logisticLoss) Gradients(y, pred float64) (g, h float64) {
	p := Sigmoid(pred)
	g = p - y
	h = p * (1 - p)
	if h < 1e-16 {
		h = 1e-16 // keep the Newton step bounded
	}
	return
}

type squaredLoss struct{}

func (squaredLoss) Kind() Kind { return Squared }

func (squaredLoss) Loss(y, pred float64) float64 {
	d := pred - y
	return 0.5 * d * d
}

func (squaredLoss) Gradients(y, pred float64) (g, h float64) {
	return pred - y, 1
}
