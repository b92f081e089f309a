package loss

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// MeanLoss returns the average loss over parallel label/prediction slices.
func MeanLoss(f Func, labels []float32, preds []float64) float64 {
	if len(labels) == 0 {
		return 0
	}
	var sum float64
	for i, y := range labels {
		sum += f.Loss(float64(y), preds[i])
	}
	return sum / float64(len(labels))
}

// ErrorRate returns the binary classification error: predictions are logits,
// classified positive when sigmoid(pred) > 0.5 (i.e. pred > 0). This is the
// paper's "test error" metric (Tables 5, 6).
func ErrorRate(labels []float32, preds []float64) float64 {
	if len(labels) == 0 {
		return 0
	}
	wrong := 0
	for i, y := range labels {
		predicted := float32(0)
		if preds[i] > 0 {
			predicted = 1
		}
		if predicted != y {
			wrong++
		}
	}
	return float64(wrong) / float64(len(labels))
}

// RMSE returns the root mean squared error of raw predictions.
func RMSE(labels []float32, preds []float64) float64 {
	if len(labels) == 0 {
		return 0
	}
	var sum float64
	for i, y := range labels {
		d := preds[i] - float64(y)
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(labels)))
}

// AUC returns the area under the ROC curve for binary labels in {0,1} given
// raw scores (any monotone transform of probability works). Ties are handled
// by the standard midrank method. It returns an error when only one class is
// present or a prediction is NaN, which no score ranks against.
func AUC(labels []float32, preds []float64) (float64, error) {
	n := len(labels)
	if n != len(preds) {
		return 0, errors.New("loss: labels and predictions differ in length")
	}
	if slices.ContainsFunc(preds, math.IsNaN) {
		return 0, errors.New("loss: AUC undefined with a NaN prediction")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return preds[order[a]] < preds[order[b]] })

	var nPos, nNeg float64
	var rankSum float64 // sum of ranks of positives, with midranks for ties
	i := 0
	for i < n {
		j := i
		for j < n && preds[order[j]] == preds[order[i]] {
			j++
		}
		midRank := float64(i+j+1) / 2 // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if labels[order[k]] == 1 {
				nPos++
				rankSum += midRank
			} else {
				nNeg++
			}
		}
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return 0, errors.New("loss: AUC undefined with a single class")
	}
	return (rankSum - nPos*(nPos+1)/2) / (nPos * nNeg), nil
}
