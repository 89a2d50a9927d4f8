package cache

import (
	"path/filepath"
	"sync"
	"testing"
)

func TestMemoryRAMOnly(t *testing.T) {
	m := NewMemory(nil, 4)
	h := HashString("int main() {}")
	if _, ok := m.Words(h); ok {
		t.Fatal("empty store answered")
	}
	m.PutWords(h, map[string]bool{"main": true, "int": true})
	words, ok := m.Words(h)
	if !ok || !words["main"] {
		t.Fatalf("words round trip: %v %v", words, ok)
	}
	key := ResultKey("patch", "fp")
	m.PutResult(key, h, &Record{Changed: true, Output: "x", MatchCount: map[string]int{"r": 1}})
	rec, ok := m.Result(key, h)
	if !ok || !rec.Changed || rec.Output != "x" || rec.MatchCount["r"] != 1 {
		t.Fatalf("result round trip: %+v %v", rec, ok)
	}
	hits, misses := m.HitsMisses()
	if hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(nil, 2)
	ha, hb, hc := HashString("a"), HashString("b"), HashString("c")
	m.PutWords(ha, map[string]bool{"a": true})
	m.PutWords(hb, map[string]bool{"b": true})
	m.Words(ha) // refresh a: b is now least recently used
	m.PutWords(hc, map[string]bool{"c": true})
	if _, ok := m.Words(hb); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := m.Words(ha); !ok {
		t.Error("recently-used entry evicted")
	}
	if m.Len() != 2 {
		t.Errorf("len=%d, want 2", m.Len())
	}
}

// TestMemoryDiskBacked pins the layering contract: writes go through to
// disk (a restart comes back warm), reads fall through on a RAM miss, and
// Invalidate clears RAM only.
func TestMemoryDiskBacked(t *testing.T) {
	disk, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	h := HashString("src")
	key := ResultKey("p", "fp")

	m1 := NewMemory(disk, 16)
	m1.PutWords(h, map[string]bool{"w": true})
	m1.PutResult(key, h, &Record{MatchCount: map[string]int{"r": 2}})

	// A fresh memory layer over the same disk answers from disk.
	m2 := NewMemory(disk, 16)
	if words, ok := m2.Words(h); !ok || !words["w"] {
		t.Fatalf("restart lost the scan entry: %v %v", words, ok)
	}
	if rec, ok := m2.Result(key, h); !ok || rec.MatchCount["r"] != 2 {
		t.Fatalf("restart lost the result entry: %+v %v", rec, ok)
	}
	// The fall-through primed RAM: the next read is a RAM hit.
	m2.Words(h)
	if hits, _ := m2.HitsMisses(); hits != 1 {
		t.Errorf("fall-through did not prime RAM (hits=%d)", hits)
	}

	// Invalidate clears RAM but not disk.
	m2.Invalidate()
	if m2.Len() != 0 {
		t.Errorf("invalidate left %d entries", m2.Len())
	}
	if _, ok := m2.Words(h); !ok {
		t.Error("disk layer lost after invalidate")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(nil, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h := HashString(string(rune('a' + (g+i)%16)))
				m.PutWords(h, map[string]bool{"x": true})
				m.Words(h)
				if i%10 == 0 {
					m.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
}

// The LRU counts the entries it drops to stay within its bound, but not
// refreshes of resident keys or a Clear.
func TestLRUCountsEvictions(t *testing.T) {
	l := NewLRU[int](2, 0)
	l.Add("a", 1)
	l.Add("b", 2)
	l.Add("a", 3) // refresh, no eviction
	if n := l.Evictions(); n != 0 {
		t.Fatalf("evictions after a refresh = %d, want 0", n)
	}
	l.Add("c", 4) // evicts b
	l.Add("d", 5) // evicts a
	if n := l.Evictions(); n != 2 {
		t.Errorf("evictions = %d, want 2", n)
	}
	l.Clear()
	if n := l.Evictions(); n != 2 {
		t.Errorf("evictions after Clear = %d, want 2", n)
	}
}
