package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
)

// benchModel trains a small model once per benchmark binary.
func benchModel(b *testing.B) *core.Model {
	b.Helper()
	d := dataset.Generate(dataset.SyntheticConfig{NumRows: 400, NumFeatures: 60, AvgNNZ: 8, Seed: 5, Zipf: 1.2})
	cfg := core.DefaultConfig()
	cfg.NumTrees = 4
	cfg.MaxDepth = 4
	cfg.Parallelism = 1
	m, err := core.Train(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// spineBody is a /predict body shaped like the benchmark's serve_predict
// requests: instances rows of nnz distinct ascending features drawn from
// features, values |N(0,1)| + 0.1 written as the shortest float32 decimal.
func spineBody(rng *rand.Rand, instances, nnz, features int) []byte {
	buf := []byte(`{"instances":[`)
	for j := 0; j < instances; j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		idx := rng.Perm(features)[:nnz]
		slices.Sort(idx)
		buf = append(buf, `{"indices":[`...)
		for k, f := range idx {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(f), 10)
		}
		buf = append(buf, `],"values":[`...)
		for k := range idx {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, float64(float32(math.Abs(rng.NormFloat64())+0.1)), 'g', -1, 32)
		}
		buf = append(buf, `]}`...)
	}
	return append(buf, `]}`...)
}

// BenchmarkPredictHandler measures the /predict hot path end to end (mux,
// admission, body read, pooled JSON decode, scoring, encode) without a
// network in between, for a single-instance body and for a body shaped like
// the benchmark's serve_predict requests (16 instances × 100 nonzeros).
// ReportAllocs tracks the pooling: the body buffer and the request-scoped
// instance/score/probability slices must come from the pool, not fresh per
// request.
func BenchmarkPredictHandler(b *testing.B) {
	m := benchModel(b)
	rng := rand.New(rand.NewSource(7))
	in := coalesceInstance(rng, 60)
	body, err := json.Marshal(map[string]any{"instances": []map[string]any{
		{"indices": in.Indices, "values": in.Values},
	}})
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, h *Handler, body []byte) {
		b.Helper()
		req := httptest.NewRequest("POST", "/predict", nil)
		req.Header.Set("Content-Type", "application/json")
		reader := bytes.NewReader(body)
		// Warm the pools once.
		req.Body = readCloser{reader}
		h.ServeHTTP(httptest.NewRecorder(), req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reader.Reset(body)
			req.Body = readCloser{reader}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 200 {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}

	b.Run("uncoalesced", func(b *testing.B) {
		run(b, New(m), body)
	})
	b.Run("coalesced", func(b *testing.B) {
		h := New(m)
		h.EnableCoalescing(CoalesceConfig{Window: 200 * time.Microsecond})
		defer h.Close()
		run(b, h, body)
	})
	b.Run("spine16x100", func(b *testing.B) {
		run(b, New(m), spineBody(rand.New(rand.NewSource(1)), 16, 100, 33_000))
	})
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// BenchmarkDecodePredict measures the decode stage alone — the one-pass
// decoder and instance validation — on a body shaped like the benchmark's
// serve_predict requests, in body bytes per second.
func BenchmarkDecodePredict(b *testing.B) {
	b.Run("spine16x100", func(b *testing.B) {
		body := spineBody(rand.New(rand.NewSource(1)), 16, 100, 33_000)
		var buf predictBuf
		buf.body.Write(body)
		if _, err := buf.decodeJSON(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buf.decodeJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
