package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	pnet "repro/internal/net"
	"repro/internal/obs"
)

// probeTransport decorates a net.Transport so every Conn it makes
// counts and times the frames that cross it. Frames pass through
// unchanged, so a decorated fleet computes exactly what an undecorated
// one does. The coordinator gets a probeTransport with rank -1 (its
// Conns come from Accept); each worker gets one carrying its rank
// (its Conn comes from Dial).
type probeTransport struct {
	inner pnet.Transport
	p     *netProbe
	rank  int
}

func (t probeTransport) Scheme() string { return t.inner.Scheme() }

func (t probeTransport) Listen(addr string) (pnet.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return probeListener{ln, t.p}, nil
}

func (t probeTransport) Dial(addr string) (pnet.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, p: t.p, worker: true, row: t.p.row(1+t.rank, fmt.Sprintf("rank %d worker", t.rank))}, nil
}

type probeListener struct {
	pnet.Listener
	p *netProbe
}

func (l probeListener) Accept() (pnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &probeConn{Conn: c, p: l.p, row: l.p.row(0, "solve (coordinator)")}, nil
}

// netProbe accumulates what the decorated Conns of one solve saw.
type netProbe struct {
	appFrames  atomic.Int64 // application frames sent, both directions
	appBytes   atomic.Int64 // their payload bytes
	heartbeats atomic.Int64 // payload-free control frames sent
	sendNS     atomic.Int64 // time inside Send for application frames
	recvWaitNS atomic.Int64 // worker time inside Recv: the halo wait
	busyNS     atomic.Int64 // worker time from Recv return to its next Send

	ranks      int // reports that complete a round
	mu         sync.Mutex
	reports    int       // application frames the coordinator received since the round completed
	lastReport time.Time // when the latest of them arrived
	coordNS    time.Duration

	rec *recorder // nil: count only
	op  int
}

func (p *netProbe) row(tid int, name string) obs.TrackID {
	if p.rec == nil {
		return obs.TrackID{}
	}
	return p.rec.tr.Track("ghost-fleet", tid, name)
}

func (p *netProbe) span(row obs.TrackID, name string, start, end time.Time) {
	if p.rec != nil {
		p.rec.span(row, name, p.op, start, end)
	}
}

// coordBusy is the coordinator's summed time from the last report of
// a round to the first frame of the next.
func (p *netProbe) coordBusy() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.coordNS
}

type probeConn struct {
	pnet.Conn
	p      *netProbe
	worker bool
	row    obs.TrackID
	// gotApp is when this worker's Recv last returned an application
	// frame; only the worker's frame-pump goroutine touches it.
	gotApp time.Time
}

func (c *probeConn) Send(m pnet.Msg) error {
	if m.Type < pnet.FrameApp {
		// Control traffic: hello and welcome carry a payload, the
		// heartbeat does not.
		err := c.Conn.Send(m)
		if err == nil && len(m.Payload) == 0 {
			c.p.heartbeats.Add(1)
		}
		return err
	}
	t0 := time.Now()
	if c.worker && !c.gotApp.IsZero() {
		c.p.busyNS.Add(int64(t0.Sub(c.gotApp)))
		c.p.span(c.row, "ghost.worker_busy", c.gotApp, t0)
		c.gotApp = time.Time{}
	}
	if !c.worker {
		// A fast rank can report on round r+1 before the coordinator
		// has sent r+1 to the others; the round is complete only once
		// every rank has reported.
		c.p.mu.Lock()
		if c.p.reports >= c.p.ranks {
			c.p.coordNS += t0.Sub(c.p.lastReport)
			c.p.span(c.row, "ghost.coord_busy", c.p.lastReport, t0)
			c.p.reports = 0
		}
		c.p.mu.Unlock()
	}
	err := c.Conn.Send(m)
	t1 := time.Now()
	if err == nil {
		c.p.appFrames.Add(1)
		c.p.appBytes.Add(int64(len(m.Payload)))
		c.p.sendNS.Add(int64(t1.Sub(t0)))
		c.p.span(c.row, "net.send", t0, t1)
	}
	return err
}

func (c *probeConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	t0 := time.Now()
	m, err := c.Conn.Recv(timeout)
	t1 := time.Now()
	app := err == nil && m.Type >= pnet.FrameApp
	switch {
	case c.worker:
		c.p.recvWaitNS.Add(int64(t1.Sub(t0)))
		c.p.span(c.row, "net.recv_wait", t0, t1)
		if app {
			c.gotApp = t1
		}
	case app:
		c.p.mu.Lock()
		c.p.reports++
		c.p.lastReport = t1
		c.p.mu.Unlock()
	}
	return m, err
}
