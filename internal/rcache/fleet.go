package rcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// The fleet layer shards the remote tier across N cached instances with
// client-side consistent hashing, the memcached topology: servers stay dumb
// byte stores that never know about each other, and every client derives the
// same key→server assignment from the server list alone. Cache keys are
// SHA-256 content addresses — already uniform — so the ring needs no extra
// key hashing: the first 8 bytes of the key are its ring position.
//
// Placement is a ring of virtual nodes: each server is hashed onto the ring
// vnodesPerServer times (points are sha256(canonicalURL#i)), and a key
// belongs to the server owning the first point at or clockwise after it.
// Virtual nodes bound the load skew of a small fleet; consistent hashing
// bounds churn — removing one of N servers remaps only that server's ~1/N of
// the keyspace, every other key keeps its assignment (fleet_test.go pins
// both properties).
//
// Replication (optional, -cache-replicas k) widens each key's home from one
// server to its k distinct ring successors: write-backs fan out to all k+1,
// and reads fall through the same list in ring order before declaring a
// miss, so a lost shard's keys are still served by its neighbors. With
// replication off, a lost shard degrades exactly its ring segment — those
// keys recompute (and the recomputes write back to the shard's successor at
// the ring's new assignment only if the shard was removed from the list;
// with the shard merely dead, its segment stays cold until it returns).
//
// Every server failure remains a per-server event: one transport latching
// down (see remote.go) never touches its peers, and output stays
// byte-identical whatever subset of the fleet is alive — a miss is always
// just a recomputation.

// vnodesPerServer is the number of ring points per server. 128 keeps the
// per-server load within a few percent of uniform for small fleets while the
// whole ring for 16 servers still fits in 32 KiB — binary-searched in tens
// of nanoseconds (BenchmarkRingPick).
const vnodesPerServer = 128

// maxReplicas bounds -cache-replicas so read fall-through and write fan-out
// buffers can live on the stack. A fleet wanting more than 8 copies of every
// record is misconfigured, not ambitious.
const maxReplicas = 8

// ringPoint is one virtual node: a position on the 64-bit ring and the
// server it maps to.
type ringPoint struct {
	hash uint64
	srv  int32
}

// ring is the immutable consistent-hash ring over a canonical server list.
// Built once at attach; lookups are read-only and allocation-free.
type ring struct {
	points []ringPoint // sorted by hash
	nsrv   int
}

// buildRing places each server's virtual nodes. urls must already be
// canonicalized and sorted — the ring hashes the strings it is given, so
// canonicalization is what makes equivalent fleet specs (reordered lists,
// trailing slashes) agree on placement.
func buildRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*vnodesPerServer), nsrv: len(urls)}
	for si, u := range urls {
		for v := 0; v < vnodesPerServer; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", u, v)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				srv:  int32(si),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnodes is vanishingly unlikely, but the
		// tie must still break deterministically for every client: lower
		// server index wins.
		return r.points[i].srv < r.points[j].srv
	})
	return r
}

// pick returns the server index owning key: the server of the first ring
// point at or clockwise after the key's position. Allocation-free.
func (r *ring) pick(key Key) int {
	h := binary.BigEndian.Uint64(key[:8])
	pts := r.points
	// Binary search for the first point with hash >= h, wrapping to 0.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return int(pts[lo].srv)
}

// successors fills buf with up to len(buf) distinct server indices in ring
// order starting at key's owner, and returns the filled prefix. buf sized
// replicas+1 yields the key's full home set: primary first, then the
// replication successors. Allocation-free for stack buffers.
func (r *ring) successors(key Key, buf []int) []int {
	want := len(buf)
	if want > r.nsrv {
		want = r.nsrv
	}
	h := binary.BigEndian.Uint64(key[:8])
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := 0
	for i := 0; i < len(pts) && n < want; i++ {
		srv := int(pts[(lo+i)%len(pts)].srv)
		seen := false
		for _, s := range buf[:n] {
			if s == srv {
				seen = true
				break
			}
		}
		if !seen {
			buf[n] = srv
			n++
		}
	}
	return buf[:n]
}

type wbItem struct {
	t    *transport
	key  Key
	body []byte
}

// remote is the networked tier Store.fill consults: a fleet of cached
// servers behind one consistent-hash ring, plus the shared asynchronous
// write-back queue. A single -cache-remote URL is simply a one-server fleet.
//
// Reads are read-through with local fill (a remote hit is persisted into the
// local disk tier, so the next run doesn't need the network). Writes are
// asynchronous write-back: computed cells are queued — fanned out to the
// key's home set when replication is on — and PUT by background workers
// while the sweep keeps simulating; Store.Close drains the queue so
// short-lived CLI processes don't exit with results unsent. The queue is
// bounded: if the fleet can't keep up, overflow write-backs are dropped
// (and counted), never blocking the simulation path.
type remote struct {
	servers  []*transport // canonical (sorted-URL) order; index = ring server id
	ring     *ring
	replicas int // extra ring successors each record is written to and read from

	mu     sync.Mutex // guards queue-vs-close
	closed bool
	queue  chan wbItem
	wg     sync.WaitGroup
}

// writebackQueue bounds the memory a burst of cold cells can pin while the
// fleet lags, per server: the queue scales with the fleet because a wider
// fleet both ingests faster and, with replication, receives more items per
// computed cell.
const writebackQueue = 512

// newRemote builds the fleet tier from a comma-separated URL list.
// Canonicalization (scheme://host), deduplication rejection, and sorting
// happen here, so every client handed the same server set — in any order,
// with any trailing-slash debris — builds the identical ring.
func newRemote(urls string, replicas int) (*remote, error) {
	var canon []string
	for _, raw := range strings.Split(urls, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		c, err := parseServerURL(raw)
		if err != nil {
			return nil, err
		}
		canon = append(canon, c)
	}
	if len(canon) == 0 {
		return nil, fmt.Errorf("rcache: remote %q: need at least one http(s)://host[:port]", urls)
	}
	sort.Strings(canon)
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("rcache: remote list names %s twice", canon[i])
		}
	}
	if replicas < 0 || replicas > maxReplicas {
		return nil, fmt.Errorf("rcache: replicas must be in [0, %d], got %d", maxReplicas, replicas)
	}
	if replicas > len(canon)-1 {
		return nil, fmt.Errorf("rcache: replicas=%d needs at least %d servers, got %d", replicas, replicas+1, len(canon))
	}
	r := &remote{
		servers:  make([]*transport, len(canon)),
		ring:     buildRing(canon),
		replicas: replicas,
		queue:    make(chan wbItem, writebackQueue*len(canon)),
	}
	for i, u := range canon {
		r.servers[i] = newTransport(u)
	}
	// Two workers per server drain the queue concurrently so one slow or
	// latched shard doesn't convoy its peers' write-backs (capped: beyond 8
	// workers the bottleneck is the single client host, not the fleet).
	workers := 2 * len(canon)
	if workers > 8 {
		workers = 8
	}
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r, nil
}

// get resolves key against its home set: the owning shard first, then — with
// replication on — its ring successors, in ring order. Any per-shard anomaly
// degrades to trying the next copy; only when every copy misses does the
// tier report a miss. decodeRecord inside transport.get guarantees a
// fall-through can never serve a wrong-key record — a replica is only
// trusted for the bytes its key names.
func (r *remote) get(key Key) (metrics.Run, bool) {
	if r.replicas == 0 {
		return r.servers[r.ring.pick(key)].get(key)
	}
	var buf [maxReplicas + 1]int
	for _, srv := range r.ring.successors(key, buf[:r.replicas+1]) {
		if run, ok := r.servers[srv].get(key); ok {
			return run, true
		}
	}
	return metrics.Run{}, false
}

// put queues an asynchronous write-back of an already-encoded record to the
// key's home set (1+replicas shards). Never blocks: a full queue drops the
// item (counted against the target shard) — losing a write-back costs a
// future recomputation, stalling the simulation path costs wall time now.
// Shards currently latched down are skipped silently: the latch already
// counted, and queueing for a dead server would only displace live items.
func (r *remote) put(key Key, body []byte) {
	var buf [maxReplicas + 1]int
	targets := r.ring.successors(key, buf[:r.replicas+1])
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, srv := range targets {
		t := r.servers[srv]
		if t.latched() {
			continue
		}
		select {
		case r.queue <- wbItem{t, key, body}:
		default:
			t.errs.Add(1)
		}
	}
}

func (r *remote) worker() {
	defer r.wg.Done()
	for item := range r.queue {
		item.t.put(item.key, item.body)
	}
}

// storesTotal and errsTotal aggregate the per-shard counters for the Stats
// one-liner; the per-shard breakdown is Stats.Shards.
func (r *remote) storesTotal() (n int64) {
	for _, t := range r.servers {
		n += t.stores.Load()
	}
	return n
}

// shardStats snapshots every transport's counters in ring order.
func (r *remote) shardStats() []ShardStats {
	out := make([]ShardStats, len(r.servers))
	for i, t := range r.servers {
		out[i] = ShardStats{
			URL:     t.base,
			Gets:    t.gets.Load(),
			Hits:    t.hits.Load(),
			Errs:    t.errs.Load(),
			Stores:  t.stores.Load(),
			Latches: t.latches.Load(),
			Latched: t.latched(),
		}
	}
	return out
}

func (r *remote) errsTotal() (n int64) {
	for _, t := range r.servers {
		n += t.errs.Load()
	}
	return n
}

// close drains pending write-backs and stops the workers. Safe to call more
// than once; puts after close are dropped silently.
func (r *remote) close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.queue)
	}
	r.mu.Unlock()
	//repro:allow tokenhold shutdown drain on the CLI main goroutine via Store.Close, after every Stream has returned — never a pool worker
	r.wg.Wait()
}
