package main

import (
	"io"
	"time"
)

// connStats is what a countingConn has seen. The coordinator drives its
// connections from one goroutine, so the fields need no lock.
type connStats struct {
	Reads, Writes         int
	ReadBytes, WriteBytes int64
	ReadWait, WriteWait   time.Duration // time blocked inside Read / Write
	// ThirdReadEnd is when the third Read returned. snap.ReadFrame takes
	// exactly three Reads per frame on a net.Pipe (kind, rest of header,
	// payload), so on the coordinator's end this is when the worker's
	// handshake ack was in hand.
	ThirdReadEnd time.Time
}

// countingConn wraps one end of a dist connection and times and counts the
// traffic through it — the dist layer seen from its boundary.
type countingConn struct {
	io.ReadWriteCloser
	stats *connStats
}

func (c countingConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.ReadWriteCloser.Read(p)
	end := time.Now()
	s := c.stats
	s.Reads++
	s.ReadBytes += int64(n)
	s.ReadWait += end.Sub(start)
	if s.Reads == 3 {
		s.ThirdReadEnd = end
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.ReadWriteCloser.Write(p)
	s := c.stats
	s.Writes++
	s.WriteBytes += int64(n)
	s.WriteWait += time.Since(start)
	return n, err
}
