package core

import "sync"

// memo is a keyed singleflight cache: concurrent callers for one key share
// one computation, and a success stays cached until dropped. A failure is
// never cached: its entry is evicted so the next call retries instead of
// replaying a stale error. The zero value is ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns key's value, running compute for it unless a cached success
// or an in-flight computation already answers.
func (c *memo[V]) get(key string, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return e.v, e.err
}

// drop forgets key's entry, so a later get computes afresh.
func (c *memo[V]) drop(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}
