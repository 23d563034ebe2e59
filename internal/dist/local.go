package dist

import (
	"fmt"
	"net"
	"sync"

	"sosf"
)

// RunLocal runs one sharded simulation: the coordinator on the calling
// goroutine and Shards workers as goroutines, connected by synchronous
// in-process pipes. It is all of `sos dist` and what the equivalence tests
// exercise.
//
// It returns the coordinator's replica (events already emitted to
// cfg.Events subscribers) for reports and snapshots. A worker failure that
// the coordinator's own error does not already explain is returned wrapped.
func RunLocal(cfg Config) (*sosf.System, error) {
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	conns := make([]Conn, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		co, wk := net.Pipe()
		conns[i] = co
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			errs[i] = RunWorker(conn, cfg.Threads, "")
		}(i, wk)
	}
	runErr := c.Run(conns)
	wg.Wait()
	if runErr != nil {
		return c.System(), runErr
	}
	for i, err := range errs {
		if err != nil {
			return c.System(), fmt.Errorf("dist: worker %d/%d: %w", i, cfg.Shards, err)
		}
	}
	return c.System(), nil
}
