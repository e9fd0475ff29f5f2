package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
)

// frontDoor is a service — WAL-backed in its own directory, or in memory —
// behind the production HTTP surface on a real loopback listener, plus the
// closed-loop client connections that drive it. Everything the end-to-end path touches is the public diffgossip
// API, httpapi.New and the routes.
type frontDoor struct {
	dir  string // "" for an in-memory service
	svc  *diffgossip.Service
	reg  *obs.Registry
	srv  *httpapi.Server // the current surface; swapped when the service reopens
	live atomic.Pointer[httpapi.Server]
	hs   *http.Server
	done chan struct{} // closed when hs.Serve has returned

	clients []*client
}

// openFrontDoor builds the stack; a non-empty root makes the service
// WAL-backed in a fresh directory under it.
func openFrontDoor(root string, g *diffgossip.Graph, p diffgossip.Params, shards, conns int) (*frontDoor, error) {
	fd := &frontDoor{}
	if root != "" {
		dir, err := os.MkdirTemp(root, "svc-")
		if err != nil {
			return nil, err
		}
		fd.dir = dir
	}
	if err := fd.openService(g, p, shards); err != nil {
		fd.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fd.close()
		return nil, err
	}
	fd.hs = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		fd.live.Load().ServeHTTP(rw, r)
	})}
	fd.done = make(chan struct{})
	go func() {
		fd.hs.Serve(ln)
		close(fd.done)
	}()
	for i := 0; i < conns; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			fd.close()
			return nil, err
		}
		fd.clients = append(fd.clients, c)
	}
	return fd, nil
}

// openService opens (or reopens) the service over fd.dir and the HTTP
// surface over it. MaxPending is unlimited: the workloads measure the
// ingest path, not the shedding path, and count any refusal as a failure.
func (fd *frontDoor) openService(g *diffgossip.Graph, p diffgossip.Params, shards int) error {
	svc, err := diffgossip.NewService(diffgossip.ServiceConfig{
		Graph: g, Params: p, Dir: fd.dir, Shards: shards, FoldWorkers: -1,
	})
	if err != nil {
		return err
	}
	fd.svc = svc
	fd.reg = obs.NewRegistry()
	svc.Instrument(fd.reg)
	fd.srv = httpapi.New(httpapi.Config{Service: svc, Registry: fd.reg, MaxPending: -1})
	fd.live.Store(fd.srv)
	return nil
}

// close stops the listener, waits for the server goroutine, closes clients
// and service, and removes the data directory. Safe on a half-built value.
func (fd *frontDoor) close() {
	for _, c := range fd.clients {
		c.conn.Close()
	}
	fd.clients = nil
	if fd.hs != nil {
		fd.hs.Close()
		<-fd.done
		fd.hs = nil
	}
	if fd.svc != nil {
		fd.svc.Close()
		fd.svc = nil
	}
	if fd.dir != "" {
		os.RemoveAll(fd.dir)
	}
}

func (fd *frontDoor) walPath() string { return filepath.Join(fd.dir, "ledger.jsonl") }

// counter reads one unlabelled-or-summed sample family from the registry
// the service and front door export — the same instruments /metrics serves.
func (fd *frontDoor) counter(name string) (float64, error) {
	var buf bytes.Buffer
	if err := fd.reg.WriteText(&buf); err != nil {
		return 0, err
	}
	fams, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		return 0, err
	}
	for _, f := range fams {
		if f.Name == name {
			total := 0.0
			for _, s := range f.Samples {
				total += s.Value
			}
			return total, nil
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// refused is how many requests the front door shed (413/400/429/503/499)
// instead of serving; the workloads require 0.
func (fd *frontDoor) refused() (float64, error) {
	return fd.counter("dgserve_http_refused_total")
}

// The fields of the front door's JSON answers the harness checks.
type batchAck struct {
	Accepted int    `json:"accepted"`
	LastSeq  uint64 `json:"last_seq"`
}

type epochAck struct {
	Ran       bool `json:"ran"`
	Converged bool `json:"converged"`
}

type reputationAck struct {
	Reputation float64 `json:"reputation"`
	Seq        uint64  `json:"seq"`
}

// serveAll is the handler rung of the ladders: it serves every request
// straight into a recorder — no socket, no client — and returns the mean
// time per request in µs and the first status that was not want (0 = none).
func serveAll(h http.Handler, reqs []*http.Request, want int) (meanUs float64, wrong int) {
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	t0 := time.Now()
	for i, r := range reqs {
		h.ServeHTTP(recs[i], r)
	}
	meanUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(reqs))
	for _, rec := range recs {
		if rec.Code != want {
			return meanUs, rec.Code
		}
	}
	return meanUs, 0
}

// clientCount is the number of closed-loop client connections the HTTP
// workloads drive: one per hardware thread, never fewer than 2 (with a
// single connection the rate is set by futex wake-up latency, not by the
// program).
func clientCount() int {
	return max(runtime.NumCPU(), 2)
}

// client is one keep-alive HTTP/1.1 connection used as a closed loop: the
// next request is written only after the previous response has been read.
// Requests are pre-rendered byte slices, so the timed loop is one write, one
// response parse and nothing else.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

// do sends one pre-rendered request and returns the status and the body,
// which is valid until the next call.
func (c *client) do(req []byte) (int, []byte, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.body.Bytes(), err
}

// arm bounds how long the connection may block, so a wedged server fails
// the segment instead of hanging the run.
func (c *client) arm(d time.Duration) { c.conn.SetDeadline(time.Now().Add(d)) }

func postRequest(path string, body []byte) []byte {
	b := make([]byte, 0, len(body)+128)
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// eachClient runs fn once per client connection, concurrently, and returns
// the first error.
func eachClient(clients []*client, fn func(i int, c *client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
