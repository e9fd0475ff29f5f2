// Cluster: federate three reputation services into one system — each node
// ingests its own clients' feedback, an anti-entropy exchange replicates the
// ledgers (here over the in-memory hub; cmd/dgserve does the same over TCP),
// and every node independently folds the shared history into identical
// reputations. This is the §3 system model of the paper run end to end:
// feedback held by many peers, one converged global view.
package main

import (
	"fmt"
	"log"
	"reflect"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

func main() {
	const (
		n        = 200
		replicas = 3
	)

	// One overlay, one base seed, shared by every replica: replicating
	// services fix their epoch seed, so converged replicas serve
	// bit-identical values.
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	hub := transport.NewHub()
	svcs := make([]*service.Service, replicas)
	nodes := make([]*cluster.Node, replicas)
	names := []string{"node-a", "node-b", "node-c"}
	for i := range svcs {
		svcs[i], err = service.New(service.Config{
			Graph:  g,
			Params: core.Params{Epsilon: 1e-6, Seed: 1},
			Shards: 4,
			// Origin must match the cluster transport address: it is the
			// node's identity in every entry's LWW stamp.
			Origin: names[i],
		})
		if err != nil {
			log.Fatal(err)
		}
		defer svcs[i].Close()
		ep, err := hub.Endpoint(names[i])
		if err != nil {
			log.Fatal(err)
		}
		defer ep.Close()
		var peers []string
		for j, nm := range names {
			if j != i {
				peers = append(peers, nm)
			}
		}
		if nodes[i], err = cluster.New(cluster.Config{Service: svcs[i], Transport: ep, Peers: peers}); err != nil {
			log.Fatal(err)
		}
	}

	// Clients rate through their home node: node 7 earns high trust from
	// clients of all three replicas, node 13 free rides everywhere.
	for i := 0; i < n; i++ {
		home := svcs[i%replicas]
		if i%2 == 0 && i != 7 {
			if _, err := home.Submit(i, 7, 0.9); err != nil {
				log.Fatal(err)
			}
		}
		if i%5 == 0 && i != 13 {
			if _, err := home.Submit(i, 13, 0.1); err != nil {
				log.Fatal(err)
			}
		}
	}
	for i, svc := range svcs {
		fmt.Printf("%s ingested %d entries locally\n", names[i], svc.Pending())
	}

	// Anti-entropy until every node's watermarks agree (equal watermark maps
	// mean everyone holds everything), then one epoch each.
	for round := 0; ; round++ {
		for _, nd := range nodes {
			nd.Exchange()
		}
		for pass := 0; pass < 2; pass++ {
			for _, nd := range nodes {
				nd.Drain()
			}
		}
		agreed := true
		for _, nd := range nodes[1:] {
			agreed = agreed && reflect.DeepEqual(nodes[0].Stats().Marks, nd.Stats().Marks)
		}
		if agreed {
			fmt.Printf("watermarks agreed after %d anti-entropy rounds: %v\n", round+1, nodes[0].Stats().Marks)
			break
		}
		if round > 100 {
			log.Fatal("cluster did not converge")
		}
	}
	for _, svc := range svcs {
		if _, _, err := svc.RunEpoch(); err != nil {
			log.Fatal(err)
		}
	}

	for _, subject := range []int{7, 13} {
		fmt.Printf("subject %d:\n", subject)
		var first float64
		for i, svc := range svcs {
			rep, view, err := svc.Reputation(subject)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s serves %.6f (%d raters)\n", names[i], rep, view.Raters(subject))
			if i == 0 {
				first = rep
			} else if rep != first {
				log.Fatalf("replicas diverged on subject %d", subject)
			}
		}
	}
	fmt.Println("all replicas bit-identical ✓")
}
