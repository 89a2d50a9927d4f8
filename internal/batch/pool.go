package batch

import "sync"

// runPool is the campaign's worker-pool core: it dispatches indices 0..n-1
// to workers, each worker applying the process function its factory
// returned, and delivers results to yield in increasing index order,
// stopping early when yield returns false. The factory runs once per
// worker goroutine, giving each worker private mutable state (its engines)
// and optionally a teardown hook (may be nil) that runs when the worker
// goroutine exits — which is how each worker closes its observability
// track's umbrella span. Memory stays bounded by the window of 2x the
// worker count: a file is admitted only when a slot is free, and a slot is
// returned per delivered result.
func runPool(n, workers int, newWorker func() (func(int) CampaignFileResult, func()), yield func(CampaignFileResult) bool) {
	jobs := make(chan int)
	results := make(chan CampaignFileResult, workers)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			process, done := newWorker()
			if done != nil {
				defer done()
			}
			for {
				select {
				case idx, ok := <-jobs:
					if !ok {
						return
					}
					fr := process(idx)
					select {
					case results <- fr:
					case <-stop:
						return
					}
				case <-stop:
					return
				}
			}
		}()
	}

	// The feeder admits a file only when the in-flight window has room; the
	// consumer returns a slot per delivered result. This bounds undelivered
	// results (and the reorder buffer below) to the window size even when
	// one slow file holds up in-order delivery.
	window := 2 * workers
	slots := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case <-slots:
			case <-stop:
				return
			}
			select {
			case jobs <- i:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: workers finish in any order, delivery is by index.
	pending := map[int]CampaignFileResult{}
	next := 0
	stopped := false
	for fr := range results {
		// After an early stop, keep draining so no worker blocks on send.
		if stopped {
			continue
		}
		pending[fr.Index] = fr
		for {
			out, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !yield(out) {
				stopped = true
				close(stop)
				break
			}
			slots <- struct{}{}
		}
	}
}
