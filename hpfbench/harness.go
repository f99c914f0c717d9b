package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"hpfcg/internal/cluster"
	"hpfcg/internal/serve"
)

// shardCount and shardWorkers fix the served shape: two shards of one
// worker each, so served concurrency equals the two cores the benchmark
// is sized for.
const (
	shardCount   = 2
	shardWorkers = 1
)

// clusterEnv is one running router with its shards, all in this
// process on loopback listeners.
type clusterEnv struct {
	routerURL string
	router    *cluster.Router
	routerSrv *http.Server
	shards    []*shardEnv
}

type shardEnv struct {
	sched *serve.Scheduler
	srv   *http.Server
	stop  func() // ends the membership loop (deregisters)
}

func quiet(string, ...any) {}

// startCluster brings up the router and the shards, registers the
// shards through the router's state API and waits until both are live.
// cacheBytes is each shard's plan-registry budget (0 = service default).
func startCluster(cacheBytes int64) (*clusterEnv, error) {
	env := &clusterEnv{}
	// The failure detector is off: a heartbeat delayed by a loaded host
	// must not evict a shard in the middle of a measurement.
	env.router = cluster.NewRouter(cluster.RouterOptions{SweepEvery: -1, Logf: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.router.Close()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	env.routerSrv = &http.Server{Handler: env.router.Handler()}
	go func() { _ = env.routerSrv.Serve(ln) }()
	env.routerURL = "http://" + ln.Addr().String()

	for i := 0; i < shardCount; i++ {
		sh, err := startShard(env.routerURL, fmt.Sprintf("shard-%d", i+1), cacheBytes)
		if err != nil {
			env.close()
			return nil, err
		}
		env.shards = append(env.shards, sh)
	}
	deadline := time.Now().Add(10 * time.Second)
	for env.router.Membership().AliveCount() < shardCount {
		if time.Now().After(deadline) {
			env.close()
			return nil, errors.New("shards never registered with the router")
		}
		time.Sleep(time.Millisecond)
	}
	return env, nil
}

func startShard(routerURL, name string, cacheBytes int64) (*shardEnv, error) {
	sched := serve.New(serve.Options{Workers: shardWorkers, PlanCacheBytes: cacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Drain(context.Background())
		return nil, fmt.Errorf("shard listen: %w", err)
	}
	sh := &shardEnv{sched: sched, srv: &http.Server{Handler: serve.NewHandler(sched)}}
	go func() { _ = sh.srv.Serve(ln) }()
	j, err := cluster.NewJoiner(cluster.JoinOptions{
		RouterURL:    routerURL,
		Name:         name,
		AdvertiseURL: "http://" + ln.Addr().String(),
		Logf:         quiet,
	})
	if err != nil {
		_ = sh.srv.Close()
		_ = sched.Drain(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = j.Run(ctx)
	}()
	sh.stop = func() { cancel(); <-done }
	return sh, nil
}

// close stops everything startCluster started and waits for it.
func (env *clusterEnv) close() {
	for _, sh := range env.shards {
		sh.stop()
	}
	for _, sh := range env.shards {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = sh.sched.Drain(ctx)
		cancel()
		_ = sh.srv.Close()
	}
	env.router.Close()
	_ = env.routerSrv.Close()
	// The router proxies through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// newClient returns an HTTP client limited to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// ack is the router's reply to an admitted job.
type ack struct {
	ID    string `json:"id"`
	Shard string `json:"shard"`
}

// errRefused marks a 429 or 503 answer: backpressure, never retried.
var errRefused = errors.New("refused")

// submit posts one job spec to the router.
func (env *clusterEnv) submit(cli *http.Client, body []byte) (ack, error) {
	resp, err := cli.Post(env.routerURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return ack{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack{}, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return ack{}, fmt.Errorf("%w: status %d", errRefused, resp.StatusCode)
	default:
		return ack{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var a ack
	if err := json.Unmarshal(data, &a); err != nil {
		return ack{}, fmt.Errorf("submit: %w", err)
	}
	return a, nil
}

// wait long-polls the job's result through the router.
func (env *clusterEnv) wait(cli *http.Client, id string) (serve.JobView, error) {
	var v serve.JobView
	resp, err := cli.Get(env.routerURL + "/jobs/" + id + "?wait=1&timeout=100s")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return v, fmt.Errorf("wait: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("wait: %w", err)
	}
	if v.State != serve.StateDone && v.State != serve.StateFailed {
		return v, fmt.Errorf("wait: job %s still %s", id, v.State)
	}
	return v, nil
}

// evictions sums the shards' plan-registry evictions.
func (env *clusterEnv) evictions() uint64 {
	var n uint64
	for _, sh := range env.shards {
		n += sh.sched.PlanCacheStats().Evictions
	}
	return n
}
