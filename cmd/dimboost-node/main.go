// Command dimboost-node runs one role of a genuinely multi-process DimBoost
// cluster over TCP: a parameter server, the barrier master, or a worker.
// Every process is given the full peer address map; workers load the
// training file and carve out their own row shard.
//
// Example 2-worker, 2-server cluster on one machine:
//
//	dimboost-node -role master  -listen :7000 -workers 2 &
//	dimboost-node -role server -id 0 -listen :7001 -workers 2 -servers 2 -features 1000 &
//	dimboost-node -role server -id 1 -listen :7002 -workers 2 -servers 2 -features 1000 &
//	dimboost-node -role worker -id 0 -listen :7003 -workers 2 -servers 2 \
//	    -peers master=:7000,server-0=:7001,server-1=:7002 -data train.libsvm -model out.bin &
//	dimboost-node -role worker -id 1 -listen :7004 -workers 2 -servers 2 \
//	    -peers master=:7000,server-0=:7001,server-1=:7002 -data train.libsvm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"dimboost/internal/cluster"
	"dimboost/internal/dataset"
	"dimboost/internal/obs"
	"dimboost/internal/transport"
)

func main() {
	var (
		role     = flag.String("role", "", "master | server | worker (required)")
		id       = flag.Int("id", 0, "server/worker index")
		listen   = flag.String("listen", "127.0.0.1:0", "listen address")
		peers    = flag.String("peers", "", "comma-separated name=addr peer map")
		workers  = flag.Int("workers", 1, "total worker count (w)")
		servers  = flag.Int("servers", 1, "parameter server count (p)")
		features = flag.Int("features", 0, "global feature count (servers and workers must agree)")
		data     = flag.String("data", "", "training data in LibSVM format (workers)")
		model    = flag.String("model", "", "output model file (worker 0)")
		trees    = flag.Int("trees", 20, "number of trees")
		depth    = flag.Int("depth", 7, "maximal tree depth")
		bits     = flag.Uint("bits", 8, "compressed histogram bits (0 = float32)")
		pullBits = flag.Uint("pull-bits", 0, "compact split records when nonzero, at a supported width (0 = full records)")
		metrics  = flag.String("metrics-listen", "", "address for GET /metrics and /debug/obs (empty = disabled)")
	)
	flag.Parse()

	if *metrics != "" {
		addr, err := obs.Default().Serve(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}

	cfg := cluster.DefaultConfig(*workers, *servers)
	cfg.NumTrees = *trees
	cfg.MaxDepth = *depth
	cfg.Bits = *bits
	cfg.PullBits = *pullBits

	name := ""
	switch *role {
	case "master":
		name = cluster.MasterName
	case "server":
		name = cluster.ServerName(*id)
	case "worker":
		name = cluster.WorkerName(*id)
	default:
		log.Fatalf("unknown role %q", *role)
	}

	ep, err := transport.NewTCPEndpoint(name, *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	fmt.Printf("%s listening on %s\n", name, ep.Addr())
	for _, pair := range strings.Split(*peers, ",") {
		if pair == "" {
			continue
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			log.Fatalf("bad peer %q (want name=addr)", pair)
		}
		ep.AddPeer(pair[:eq], pair[eq+1:])
	}

	switch *role {
	case "master":
		cluster.ServeMaster(ep, *workers)
		waitForInterrupt()

	case "server":
		if *features <= 0 {
			log.Fatal("-features is required for servers")
		}
		if err := cluster.ServeServer(ep, *id, *features, cfg); err != nil {
			log.Fatal(err)
		}
		waitForInterrupt()

	case "worker":
		if *data == "" {
			log.Fatal("-data is required for workers")
		}
		full, err := dataset.ReadLibSVMFile(*data, *features)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := dataset.ShardRange(full.NumRows(), *workers, *id)
		shard := full.Subset(lo, hi)
		fmt.Printf("worker %d: rows [%d,%d) of %d\n", *id, lo, hi, full.NumRows())
		start := time.Now()
		res, err := cluster.RunWorker(ep, *id, shard, full.NumFeatures, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worker %d finished %d trees in %s\n", *id, len(res.Model.Trees), time.Since(start).Round(time.Millisecond))
		if *id == 0 && *model != "" {
			if err := res.Model.SaveFile(*model); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("model saved to %s\n", *model)
		}
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
