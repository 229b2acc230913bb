package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// bootTimeout bounds one daemon's exec-to-ready time.
const bootTimeout = 30 * time.Second

// stopTimeout bounds a daemon's graceful drain before it is killed.
const stopTimeout = 15 * time.Second

// daemon is one prpartd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	out    *daemonOutput
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited closes
}

// daemonOutput collects a daemon's stdout and stderr and signals when
// it logs that its listener is up.
type daemonOutput struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	listening chan struct{}
	once      sync.Once
}

var listeningLine = []byte("prpartd: listening on ")

func (o *daemonOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if bytes.Contains(o.buf.Bytes(), listeningLine) {
		o.once.Do(func() { close(o.listening) })
	}
	return len(p), nil
}

func (o *daemonOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// startDaemon execs prpartd with args; url is the base URL its -addr
// makes it serve.
func startDaemon(bin, url string, args []string) (*daemon, error) {
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		url:    url,
		out:    &daemonOutput{listening: make(chan struct{})},
		exited: make(chan struct{}),
	}
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// A daemon must not outlive the benchmark, even one killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting prpartd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// awaitReady blocks until the daemon has logged its listener and
// answered GET /healthz with 200.
func (d *daemon) awaitReady(hc *http.Client) error {
	deadline := time.After(bootTimeout)
	select {
	case <-d.out.listening:
	case <-d.exited:
		return fmt.Errorf("prpartd exited during boot (%v): %s", d.err, d.out)
	case <-deadline:
		return fmt.Errorf("prpartd not listening after %s: %s", bootTimeout, d.out)
	}
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("prpartd exited during boot (%v): %s", d.err, d.out)
		case <-deadline:
			return fmt.Errorf("prpartd /healthz not ready after %s: %s", bootTimeout, d.out)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns,
// and waits for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// bootCluster starts one daemon per args entry at once and returns them
// with the boot-to-ready time: from the first exec to the last node's
// first /healthz 200. On error every started daemon is stopped.
func bootCluster(hc *http.Client, bin string, urls []string, args [][]string) ([]*daemon, time.Duration, error) {
	var ds []*daemon
	fail := func(err error) ([]*daemon, time.Duration, error) {
		stopAll(ds)
		return nil, 0, err
	}
	t0 := time.Now()
	for i := range args {
		d, err := startDaemon(bin, urls[i], args[i])
		if err != nil {
			return fail(err)
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.awaitReady(hc); err != nil {
			return fail(err)
		}
	}
	return ds, time.Since(t0), nil
}

func stopAll(ds []*daemon) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// listenN opens n loopback listeners on ephemeral ports and returns
// them with their base URLs.
func listenN(n int) ([]net.Listener, []string, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return lns, urls, nil
}

// freeURLs reserves n loopback ports and returns their base URLs. The
// ports are released before the daemons bind them, which is safe on a
// loopback interface nothing else is allocating ports on at that moment.
func freeURLs(n int) ([]string, error) {
	lns, urls, err := listenN(n)
	for _, ln := range lns {
		ln.Close()
	}
	return urls, err
}

// debugVars fetches a daemon's flat instrument map from /debug/vars.
func debugVars(ctx context.Context, hc *http.Client, url string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/debug/vars: status %d", url, resp.StatusCode)
	}
	vars := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("%s/debug/vars: %w", url, err)
	}
	return vars, nil
}
