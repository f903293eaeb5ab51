package lru

import (
	"fmt"
	"sync"
	"testing"
)

// held reports which of the keys the cache holds, without touching their
// recency (Get would).
func held(c *Cache[string, int], keys ...string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, k := range keys {
		if _, ok := c.entries[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, i)
	}
	if got := fmt.Sprint(held(c, "a", "b", "c", "d")); got != "[b c d]" || c.Len() != 3 {
		t.Fatalf("after four puts into three slots: %s (len %d), want [b c d]", got, c.Len())
	}
	c.Put("e", 4)
	if got := fmt.Sprint(held(c, "b", "c", "d", "e")); got != "[c d e]" {
		t.Errorf("the oldest goes first: %s, want [c d e]", got)
	}
}

func TestGetPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // b is now the least recently used
	if got := fmt.Sprint(held(c, "a", "b", "c")); got != "[a c]" {
		t.Errorf("after Get(a) and a third Put: %s, want [a c]", got)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("Get of an evicted key found it")
	}
}

func TestPutReplacesWithoutGrowing(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // replaces, and makes a the most recently used
	if c.Len() != 2 {
		t.Fatalf("len after replacing = %d, want 2", c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) = %d, want the replacement 10", v)
	}
	c.Put("c", 3)
	if got := fmt.Sprint(held(c, "a", "b", "c")); got != "[a c]" {
		t.Errorf("replacing promoted a: %s, want [a c]", got)
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Remove("a")
	c.Remove("nope")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatalf("after Remove(a): found=%v len=%d", ok, c.Len())
	}
	c.Put("c", 3) // the freed slot: nothing is evicted
	if got := fmt.Sprint(held(c, "b", "c")); got != "[b c]" {
		t.Errorf("after Remove and Put: %s, want [b c]", got)
	}
}

func TestCapacityBelowOneHoldsOne(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := New[string, int](capacity)
		c.Put("a", 1)
		c.Put("b", 2)
		if got := fmt.Sprint(held(c, "a", "b")); got != "[b]" || c.Len() != 1 {
			t.Errorf("capacity %d: holds %s (len %d), want [b]", capacity, got, c.Len())
		}
	}
}

// TestConcurrentGetPut hammers one cache from several goroutines; run under
// -race. The cache must stay within its capacity and every value it returns
// must be one stored under that key.
func TestConcurrentGetPut(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprint(i % 40)
				if v, ok := c.Get(k); ok && v%40 != i%40 {
					t.Errorf("Get(%s) = %d, stored under another key", k, v)
					return
				}
				c.Put(k, i+g*40_000)
				if i%97 == 0 {
					c.Remove(k)
				}
				if n := c.Len(); n > 16 {
					t.Errorf("len %d over capacity 16", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
