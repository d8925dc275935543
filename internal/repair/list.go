package repair

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ground"
)

// Content-chunked copy-on-write lists.
//
// The Outcome's kept, removed and inferred facts and its conflict
// clusters are held in Lists of read-out records (see record.go):
// immutable sequences in ascending id order, stored as a slice of
// chunks. A chunk is sorted, never written after it is built, and shared
// by every List value that holds it, so an update copies only the chunks
// its churned ids land in plus the chunk slice (n/B entries), and a List
// handed to a reader stays a frozen snapshot.
//
// Chunk boundaries come from the contents alone: an element ends its
// chunk exactly when a fixed mixing hash of its id has its low chunkBits
// bits set. The same contents therefore always have the same layout,
// whatever sequence of splices produced them, and a live List is
// reflect.DeepEqual to the bulk build of its elements.
//
// A List is read through Len and Each. The method value l.Each has the
// shape of a push iterator (iter.Seq), so code built with Go 1.23 or
// newer can range over it or pass it to slices.Collect; the same holds
// for the FactList and ClusterList that render it.

// chunkBits sets the expected chunk size of a List, 1<<chunkBits.
const chunkBits = 7

const chunkMask = 1<<chunkBits - 1

// listItem is a record a List can hold: a fact or a conflict cluster,
// identified by a unique atom id and compared by content.
type listItem[T any] interface {
	listID() ground.AtomID
	equal(T) bool
}

// List is an immutable sequence sorted by id, stored as content-defined
// chunks shared between snapshots: each chunk ascends by id and is never
// written after it is built. The zero value is the empty list.
type List[T listItem[T]] struct {
	chunks [][]T
	n      int
}

// Len returns the number of elements.
func (l List[T]) Len() int { return l.n }

// Each calls fn on the elements in ascending id order until fn returns
// false.
func (l List[T]) Each(fn func(T) bool) {
	for _, c := range l.chunks {
		for _, x := range c {
			if !fn(x) {
				return
			}
		}
	}
}

// endsChunk reports whether an element with this id closes its chunk:
// the splitmix64 finalizer of the id with its low chunkBits bits set.
func endsChunk(id ground.AtomID) bool {
	x := uint64(uint32(id)) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return x&chunkMask == chunkMask
}

// newList builds a List over items, which must be sorted by id and are
// not copied: the chunks are subslices of items.
func newList[T listItem[T]](items []T) List[T] {
	if len(items) == 0 {
		return List[T]{}
	}
	return List[T]{chunks: appendChunks(nil, items), n: len(items)}
}

// readOnly wraps items, which must be sorted by id, as a one-chunk List
// without copying them or hashing their ids. Its layout is not the bulk
// build's, so it is for lists that are only read, never spliced.
func readOnly[T listItem[T]](items []T) List[T] {
	if len(items) == 0 {
		return List[T]{}
	}
	return List[T]{chunks: [][]T{items}, n: len(items)}
}

// appendChunks cuts items after every boundary element and appends the
// pieces; only a piece at the end of the list may lack a boundary.
func appendChunks[T listItem[T]](dst [][]T, items []T) [][]T {
	start := 0
	for i := range items {
		if i+1 == len(items) || endsChunk(items[i].listID()) {
			dst = append(dst, items[start:i+1:i+1])
			start = i + 1
		}
	}
	return dst
}

// gather merges the units' sel lists into one array sorted by id. It
// sorts 8-byte (id, position) keys rather than the elements and copies
// each element once. Ids are unique across units. Empty input gives nil.
func gather[T listItem[T]](units []*unit, sel func(*unit) []T) []T {
	offsets := make([]int, len(units)+1)
	for i, u := range units {
		offsets[i+1] = offsets[i] + len(sel(u))
	}
	total := offsets[len(units)]
	if total == 0 {
		return nil
	}
	keys := make([]uint64, 0, total)
	for i, u := range units {
		for p, x := range sel(u) {
			keys = append(keys, uint64(uint32(x.listID()))<<32|uint64(offsets[i]+p))
		}
	}
	slices.Sort(keys)
	out := make([]T, total)
	ui := 0
	for k, key := range keys {
		g := int(uint32(key))
		if g < offsets[ui] || g >= offsets[ui+1] {
			ui = sort.Search(len(units), func(i int) bool { return offsets[i+1] > g })
		}
		out[k] = sel(units[ui])[g-offsets[ui]]
	}
	return out
}

// lookup returns the elements with the given ids, which must ascend and
// all be in l.
func (l List[T]) lookup(ids []ground.AtomID) []T {
	if len(ids) == 0 {
		return nil
	}
	out := make([]T, 0, len(ids))
	j := 0
	for _, id := range ids {
		j += sort.Search(len(l.chunks)-j, func(k int) bool {
			c := l.chunks[j+k]
			return c[len(c)-1].listID() >= id
		})
		var c []T
		if j < len(l.chunks) {
			c = l.chunks[j]
		}
		i := sort.Search(len(c), func(k int) bool { return c[k].listID() >= id })
		if i == len(c) || c[i].listID() != id {
			panic(fmt.Sprintf("repair: id %d is not in the list", id))
		}
		out = append(out, c[i])
	}
	return out
}

// splice returns l with rm's elements removed and ad's inserted. Both
// must be sorted by id, every rm id must be in l, and no ad id may
// collide with a surviving element. Only the chunks the edited ids land
// in are rebuilt: a chunk that loses its boundary element merges with
// the next, a boundary element entering a chunk cuts it there. The
// other chunks are shared with l, which is not modified, and nothing is
// shared with rm or ad: a caller may keep and edit them.
func (l List[T]) splice(rm, ad []T) List[T] {
	if len(rm) == 0 && len(ad) == 0 {
		return l
	}
	if l.n == 0 {
		// One allocation per chunk: chunks cut from one shared array would
		// keep all of it alive once later splices replace most of them.
		chunks := appendChunks(nil, ad)
		for i, c := range chunks {
			chunks[i] = slices.Clip(slices.Clone(c))
		}
		return List[T]{chunks: chunks, n: len(ad)}
	}
	last := len(l.chunks) - 1
	// hi is the largest id chunk j takes edits for: its last id, and
	// everything beyond for the last chunk.
	hi := func(j int) ground.AtomID {
		if j == last {
			return math.MaxInt32
		}
		c := l.chunks[j]
		return c[len(c)-1].listID()
	}
	out := make([][]T, 0, len(l.chunks)+len(ad)>>chunkBits+2)
	ri, ai, i := 0, 0, 0
	for ri < len(rm) || ai < len(ad) {
		id := ground.AtomID(math.MaxInt32)
		if ri < len(rm) {
			id = rm[ri].listID()
		}
		if ai < len(ad) && ad[ai].listID() < id {
			id = ad[ai].listID()
		}
		j := i + sort.Search(last-i, func(k int) bool { return hi(i+k) >= id })
		out = append(out, l.chunks[i:j]...)

		// Re-cut the run of chunks starting at j: merge each with its
		// edits, and carry on into the next while the merged run does not
		// end on a boundary element.
		var buf []T
		for ; j <= last; j++ {
			h := hi(j)
			re, ae := ri, ai
			for re < len(rm) && rm[re].listID() <= h {
				re++
			}
			for ae < len(ad) && ad[ae].listID() <= h {
				ae++
			}
			if len(buf) == 0 && re == ri && ae == ai {
				break // the run emptied out before an untouched chunk
			}
			buf = mergeEdits(buf, l.chunks[j], rm[ri:re], ad[ai:ae])
			ri, ai = re, ae
			if len(buf) > 0 && endsChunk(buf[len(buf)-1].listID()) {
				j++
				break
			}
		}
		out = appendChunks(out, buf)
		i = j
	}
	out = append(out, l.chunks[i:]...)
	if len(out) == 0 {
		return List[T]{}
	}
	return List[T]{chunks: out, n: l.n - len(rm) + len(ad)}
}

// mergeEdits appends items to buf with rm's elements dropped and ad's
// merged in by id.
func mergeEdits[T listItem[T]](buf, items, rm, ad []T) []T {
	if buf == nil {
		buf = make([]T, 0, len(items)+len(ad))
	}
	for _, x := range items {
		id := x.listID()
		for len(ad) > 0 && ad[0].listID() < id {
			buf = append(buf, ad[0])
			ad = ad[1:]
		}
		if len(rm) > 0 && rm[0].listID() == id {
			rm = rm[1:]
			continue
		}
		buf = append(buf, x)
	}
	return append(buf, ad...)
}
