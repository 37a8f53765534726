package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the virtual nodes each replica owns on the hash ring.
const vnodes = 64

// ring is a consistent-hash ring with virtual nodes. Each replica owns
// vnodes points on a 64-bit circle; a key routes to the first point
// clockwise of its hash. The point of hashing spec keys — rather than
// round-robining — is cache affinity: every request for one
// specification lands on the same replica, so that replica's session
// pool and decoded table module stay hot for exactly its specs, and
// adding a replica reshuffles only ~1/N of the key space.
type ring struct {
	points   []ringPoint
	replicas []*replica
}

type ringPoint struct {
	hash uint64
	rep  int // index into replicas
}

func newRing(replicas []*replica) *ring {
	r := &ring{
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
		replicas: replicas,
	}
	for i, rep := range replicas {
		for v := 0; v < vnodes; v++ {
			h := hash64(rep.url + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, rep: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Ties (astronomically rare) break on replica index so the ring
		// is deterministic whatever order the points sorted in.
		return p.rep < q.rep
	})
	return r
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256. Speed is
// irrelevant here (routing happens once per request, not per reduction)
// and SHA-256 keeps the point distribution uniform without tuning.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// order returns every replica in preference order for key: the owner
// (first point clockwise of the key's hash) first, then the remaining
// replicas in the order their points appear walking the ring. The
// failover order is therefore as stable as the ring itself — every
// client that knows the same target list computes the same order.
func (r *ring) order(key string) []*replica {
	out := make([]*replica, 0, len(r.replicas))
	if len(r.points) == 0 {
		return out
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(out) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.rep] {
			seen[p.rep] = true
			out = append(out, r.replicas[p.rep])
		}
	}
	return out
}
