package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"itlbcfr/internal/client"
	"itlbcfr/internal/server"
)

// callers is how many closed-loop clients drive the daemon, and how many
// connections they share: no more than the two CPUs the workloads were
// sized for.
const callers = 2

// daemon is an in-process itlbd: server.New(...).Handler() on a loopback
// listener, optionally behind the benchmark's timing middleware, with the
// clients that drive it.
type daemon struct {
	hs        *http.Server
	done      chan error
	transport *http.Transport
	clients   []*client.Client
	timer     *handlerTimer // nil in an untraced repetition
}

// startDaemon serves srv on a fresh loopback port. A non-nil tracer puts
// the timing middleware in front of the handler and makes the clients send
// request ids.
func startDaemon(srv *server.Server, tr *tracer, s *samples) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		done:      make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: callers, MaxConnsPerHost: callers},
	}
	var h http.Handler = srv.Handler()
	var rt http.RoundTripper = d.transport
	if tr != nil {
		d.timer = newHandlerTimer(h, tr, s)
		h, rt = d.timer, idTransport{next: d.transport}
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.done <- d.hs.Serve(l) }()
	hc := &http.Client{Transport: rt}
	for range callers {
		c := client.New(l.Addr().String())
		c.HTTPClient = hc
		c.Retries = -1 // a refused request is a failure to report, not to hide
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// stop shuts the daemon down and waits until it has stopped serving.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.transport.CloseIdleConnections()
	return err
}
