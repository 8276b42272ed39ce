package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"roload/internal/gateway"
	"roload/internal/schema"
	"roload/internal/service"
)

const (
	gatewayTier = "gateway"
	numBackends = 2
)

// fleet is the serve stack the serve workloads drive, built in-process
// from the same constructors the commands use and at their default
// configuration: gateway.New in front of numBackends service.NewServer
// backends, each on its own loopback listener and logging through the
// commands' slog JSON handler into its own file.
type fleet struct {
	url      string
	backends []string
	gw       *gateway.Gateway
	srvs     []*service.Server
	https    []*http.Server
	logs     []*os.File
}

// startFleet builds the fleet under dir and waits until the gateway's
// /healthz admits every backend. durable gives each backend an artifact
// store in dir (the roload-serve -store flag). tr instruments the
// handlers for a traced run (nil: none).
func startFleet(dir string, durable bool, tr *tracer) (*fleet, error) {
	f := &fleet{}
	if err := f.start(dir, durable, tr); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(dir string, durable bool, tr *tracer) error {
	for i := 0; i < numBackends; i++ {
		tier := fmt.Sprintf("backend%d", i)
		logger, err := f.logger(dir, tier)
		if err != nil {
			return err
		}
		cfg := service.Config{Logger: logger}
		if durable {
			cfg.StoreDir = filepath.Join(dir, tier+"-store")
		}
		srv, err := service.NewServer(cfg)
		if err != nil {
			return err
		}
		f.srvs = append(f.srvs, srv)
		url, err := f.serve(tr.wrap(tier, srv.Handler()))
		if err != nil {
			return err
		}
		f.backends = append(f.backends, url)
	}
	logger, err := f.logger(dir, gatewayTier)
	if err != nil {
		return err
	}
	if f.gw, err = gateway.New(gateway.Config{Backends: f.backends, Logger: logger}); err != nil {
		return err
	}
	if f.url, err = f.serve(tr.wrap(gatewayTier, f.gw.Handler())); err != nil {
		return err
	}
	return f.waitHealthy()
}

func (f *fleet) logger(dir, tier string) (*slog.Logger, error) {
	file, err := os.Create(filepath.Join(dir, tier+".log"))
	if err != nil {
		return nil, err
	}
	f.logs = append(f.logs, file)
	return slog.New(slog.NewJSONHandler(file, nil)), nil
}

// serve mounts h on a fresh loopback listener and returns its root URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, srv)
	// Serve only returns ErrServerClosed once close shuts it down; a
	// listener failing earlier fails every request, which the checks
	// report.
	go srv.Serve(ln) //nolint:errcheck
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the gateway's /healthz until it admits every
// backend.
func (f *fleet) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h schema.GatewayHealth
		err := getEnvelope(http.DefaultClient, f.url+"/healthz", &h)
		if err == nil && h.Admitted == numBackends {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not healthy after 10s: admitted %d, err %v", h.Admitted, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains and stops every tier that was started, then closes the
// log files.
func (f *fleet) close() {
	if f.gw != nil {
		f.gw.StartDrain()
	}
	for _, srv := range f.srvs {
		srv.StartDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range f.https {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, srv := range f.srvs {
		srv.Close()
	}
	for _, l := range f.logs {
		l.Close()
	}
}

// fleetMetrics is one snapshot of every tier's /metrics.
type fleetMetrics struct {
	gateway  schema.GatewayMetrics
	backends []schema.ServeMetrics
}

func (f *fleet) metrics() (fleetMetrics, error) {
	var m fleetMetrics
	if err := getEnvelope(http.DefaultClient, f.url+"/metrics", &m.gateway); err != nil {
		return m, err
	}
	m.backends = make([]schema.ServeMetrics, len(f.backends))
	for i, b := range f.backends {
		if err := getEnvelope(http.DefaultClient, b+"/metrics", &m.backends[i]); err != nil {
			return m, err
		}
	}
	return m, nil
}

// getEnvelope GETs url and opens its roload-serve/v1 envelope into out.
func getEnvelope(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var env schema.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return env.Open(schema.ServeV1, out)
}
