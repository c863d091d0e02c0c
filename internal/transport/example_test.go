package transport_test

import (
	"context"
	"fmt"
	"sync"

	"ptychopath/internal/transport"
)

// Example_dialAndServe shows the transport's two halves working
// together on loopback TCP: a coordinator hub serving the rendezvous,
// and two worker clients that dial in, receive a session setup, run a
// tiny "reconstruction" (one point-to-point exchange and one
// allreduce — the same primitives gradsync issues), and ship results
// back. In production the hub lives inside ptychoserve and the clients
// inside ptychoworker processes on other machines.
func Example_dialAndServe() {
	hub, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer hub.Close()

	// Two workers dial the coordinator (ptychoworker -connect does
	// exactly this) and wait for work. The example returns only once
	// both have shipped their result and hung up: the deferred hub.Close
	// must not cut a worker off inside SendResult.
	results := make(chan string, 2)
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			c, err := transport.Dial(hub.Addr().String(), transport.DialOptions{
				Name: fmt.Sprintf("worker-%d", i),
			})
			if err != nil {
				panic(err)
			}
			defer c.Close()
			setup, err := c.WaitSetup(context.Background(), nil)
			if err != nil {
				panic(err)
			}
			// c now implements simmpi.Transport for this rank: the
			// engines run on it unmodified. Exchange one tagged message
			// with the peer, then allreduce a per-rank value.
			peer := 1 - setup.Rank
			c.Send(peer, 7, []complex128{complex(float64(setup.Rank), 0)})
			data, err := c.Recv(peer, 7)
			if err != nil {
				panic(err)
			}
			sum, err := c.AllreduceSum(float64(setup.Rank + 1))
			if err != nil {
				panic(err)
			}
			results <- fmt.Sprintf("rank %d got %g from rank %d, allreduce sum %g",
				setup.Rank, real(data[0]), peer, sum)
			if err := c.SendResult(&transport.RankResult{Rank: setup.Rank}); err != nil {
				panic(err)
			}
		}(i)
	}

	// The coordinator waits for both registrations, opens a 2-rank
	// session, and collects the outcomes.
	for hub.IdleWorkers() < 2 {
	}
	sess, err := hub.StartSession([]*transport.Setup{
		{JobID: "example", Algorithm: "gd"},
		{JobID: "example", Algorithm: "gd"},
	}, transport.SessionCallbacks{})
	if err != nil {
		panic(err)
	}
	ranks, err := sess.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	workers.Wait()
	fmt.Println(<-results)
	fmt.Println(<-results)
	fmt.Println("session results:", len(ranks))
	// Unordered output:
	// rank 0 got 1 from rank 1, allreduce sum 3
	// rank 1 got 0 from rank 0, allreduce sum 3
	// session results: 2
}
