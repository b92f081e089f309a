// Command dimboost-loadgen drives open-loop load at a dimboost-serve
// instance and reports throughput, shed rate, and accepted-request latency
// percentiles — the tool for verifying an admission configuration sheds
// overload instead of collapsing. Response time runs from the instant each
// arrival was due, so a stall shows the queue it causes; service time, from
// the send, is printed next to it.
//
// Usage:
//
//	dimboost-loadgen -url http://localhost:8080/predict -rate 500 -duration 10s
//	  [-tenant teamA] [-body '{"instances":[...]}' | -body-file req.json]
//	  [-distinct-bodies 256 -instances 1 -features 5000 -nnz 12 -seed 1]
//	  [-content-type application/json] [-json out.json]
//
// Open loop: arrivals come at -rate regardless of completions, like real
// traffic. 429/503 responses count as shed (and each must carry
// Retry-After); only 200s enter the latency percentiles.
//
// With -distinct-bodies N the generator synthesizes N distinct request
// payloads (round-robined across arrivals), each carrying -instances sparse
// rows over -features standardized (zero-mean, so negative-valued) features
// — the many-small-requests traffic shape that server-side coalescing
// exists for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"dimboost/internal/loadgen"
)

// syntheticBodies builds n distinct /predict payloads of k sparse rows each
// over f standardized features (values drawn from a unit normal, so roughly
// half are negative).
func syntheticBodies(n, k, f, nnz int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	type inst struct {
		Indices []int32   `json:"indices"`
		Values  []float32 `json:"values"`
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		ins := make([]inst, k)
		for j := range ins {
			m := 1 + rng.Intn(2*nnz-1)
			seen := map[int32]bool{}
			var idx []int32
			for len(idx) < m {
				ft := int32(rng.Intn(f))
				if !seen[ft] {
					seen[ft] = true
					idx = append(idx, ft)
				}
			}
			sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
			vals := make([]float32, m)
			for v := range vals {
				vals[v] = float32(math.Round(rng.NormFloat64()*1000) / 1000)
			}
			ins[j] = inst{Indices: idx, Values: vals}
		}
		b, err := json.Marshal(map[string]any{"instances": ins})
		if err != nil {
			log.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8080/predict", "target URL")
		rate        = flag.Float64("rate", 100, "arrival rate, requests/second")
		duration    = flag.Duration("duration", 10*time.Second, "how long to keep arrivals coming")
		tenant      = flag.String("tenant", "", "X-Tenant header value")
		body        = flag.String("body", `{"instances":[{"indices":[0],"values":[1.0]}]}`, "request body")
		bodyFile    = flag.String("body-file", "", "read the request body from this file instead of -body")
		contentType = flag.String("content-type", "application/json", "request Content-Type")
		jsonOut     = flag.String("json", "", "write the machine-readable result to this file")

		distinct  = flag.Int("distinct-bodies", 0, "synthesize this many distinct payloads, round-robined (0 = use -body)")
		instances = flag.Int("instances", 1, "sparse rows per synthesized payload")
		features  = flag.Int("features", 5000, "feature-space width for synthesized payloads")
		nnz       = flag.Int("nnz", 12, "average non-zeros per synthesized row")
		seed      = flag.Int64("seed", 1, "seed for synthesized payloads")
	)
	flag.Parse()

	payload := []byte(*body)
	if *bodyFile != "" {
		b, err := os.ReadFile(*bodyFile)
		if err != nil {
			log.Fatal(err)
		}
		payload = b
	}
	var bodies [][]byte
	if *distinct > 0 {
		bodies = syntheticBodies(*distinct, *instances, *features, *nnz, *seed)
		fmt.Printf("synthesized %d distinct bodies × %d instance(s) over %d features\n",
			*distinct, *instances, *features)
	}

	fmt.Printf("open-loop: %s at %g req/s for %s\n", *url, *rate, *duration)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:         *url,
		Rate:        *rate,
		Duration:    *duration,
		Body:        payload,
		Bodies:      bodies,
		ContentType: *contentType,
		Tenant:      *tenant,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sent %d, accepted %d (%.1f req/s), shed %d (%.1f%%), errors %d\n",
		res.Sent, res.Accepted, res.Throughput, res.Shed, 100*res.ShedRate, res.Errors)
	fmt.Printf("response time (from due):  p50 %s  p95 %s  p99 %s\n", res.P50, res.P95, res.P99)
	fmt.Printf("service time (from send):  p50 %s  p95 %s  p99 %s\n", res.ServiceP50, res.ServiceP95, res.ServiceP99)
	for code, n := range res.Statuses {
		fmt.Printf("  HTTP %d: %d\n", code, n)
	}
	if res.Shed > 0 && !res.RetryAfterOnAllSheds {
		fmt.Println("WARNING: some 429/503 responses were missing Retry-After")
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
