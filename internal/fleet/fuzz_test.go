package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// FuzzRingPlacement feeds arbitrary membership add/remove sequences
// through the ring and checks, after every step, the properties the
// fleet's correctness rests on:
//
//  1. placement is deterministic: a ring rebuilt from a shuffled copy
//     of the membership answers identically for every deployment;
//  2. placement is total and closed: every deployment maps to a
//     current member, never to a departed one (and on an empty
//     membership, to the zero Member);
//  3. moves are minimal: relative to the previous membership, a
//     deployment changes owner only if the change involves the member
//     that was just added or removed.
//
// Each input byte is one op: low bit selects add/remove, the rest
// picks one of 16 candidate node ids.
func FuzzRingPlacement(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x04, 0x05, 0x06})       // add n0,n1,n2; remove n2; add n3
	f.Add([]byte{0x00, 0x01})                         // add n0, remove n0 -> empty
	f.Add([]byte{0x1e, 0x1c, 0x1a, 0x18, 0x19, 0x1b}) // grow then shrink
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		deps := make([]string, 48)
		for i := range deps {
			deps[i] = fmt.Sprintf("dep-%d", i)
		}
		alive := map[string]bool{}
		_, err := New(nil)
		if err != nil {
			t.Fatal(err)
		}
		prevOwner := map[string]string{}
		rng := rand.New(rand.NewSource(int64(len(ops))))

		for step, op := range ops {
			id := fmt.Sprintf("n%d", (op>>1)&0x0f)
			add := op&1 == 0
			if add == alive[id] {
				continue // no-op: adding a member twice / removing an absent one
			}
			alive[id] = add
			var mem []Member
			for m, ok := range alive {
				if ok {
					mem = append(mem, Member{ID: m, Addr: "http://" + m})
				}
			}
			// Map order is random; sort so the shuffle below, and with it
			// every step, replays identically for one input.
			sort.Slice(mem, func(i, j int) bool { return mem[i].ID < mem[j].ID })
			ring, err := New(mem)
			if err != nil {
				t.Fatalf("step %d: New(%v): %v", step, mem, err)
			}

			// (1) determinism across input order.
			shuffled := append([]Member(nil), mem...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			ring2, err := New(shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Version() != ring2.Version() {
				t.Fatalf("step %d: version differs across input order", step)
			}

			for _, d := range deps {
				owner := ring.Owner(d)
				if o2 := ring2.Owner(d); owner != o2 {
					t.Fatalf("step %d: owner(%s) nondeterministic: %v vs %v", step, d, owner, o2)
				}
				// (2) totality/closure.
				if len(mem) == 0 {
					if owner != (Member{}) {
						t.Fatalf("step %d: empty membership owns %s via %v", step, d, owner)
					}
				} else if !alive[owner.ID] {
					t.Fatalf("step %d: owner(%s) = %q which is not a member", step, d, owner.ID)
				}
				// (3) minimal moves: only the changed member gains/loses.
				if before, had := prevOwner[d]; had && before != owner.ID {
					if add && owner.ID != id {
						t.Fatalf("step %d: adding %q moved %s from %q to %q", step, id, d, before, owner.ID)
					}
					if !add && before != id {
						t.Fatalf("step %d: removing %q moved %s from %q to %q", step, id, d, before, owner.ID)
					}
				}
				if len(mem) == 0 {
					delete(prevOwner, d)
				} else {
					prevOwner[d] = owner.ID
				}
			}
		}
	})
}
