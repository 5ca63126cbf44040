package webobj

import (
	"testing"
	"testing/quick"

	"webharmony/internal/rng"
)

func TestCatalogCounts(t *testing.T) {
	c := NewCatalog(10000, 1)
	if c.Scale() != 10000 {
		t.Fatal("scale wrong")
	}
	if c.CacheableTotal() >= c.Total() {
		t.Fatal("dynamic objects missing")
	}
	if c.CacheableTotal() != c.Total()-uint64(10000)-1000 {
		t.Fatalf("cacheable=%d total=%d", c.CacheableTotal(), c.Total())
	}
}

func TestCatalogPanicsOnZeroScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCatalog(0) did not panic")
		}
	}()
	NewCatalog(0, 1)
}

func TestObjectDeterminism(t *testing.T) {
	c1 := NewCatalog(1000, 7)
	c2 := NewCatalog(1000, 7)
	for id := uint64(0); id < c1.Total(); id += 97 {
		if c1.Object(id) != c2.Object(id) {
			t.Fatalf("object %d differs across identical catalogs", id)
		}
	}
}

func TestObjectSeedChangesSizes(t *testing.T) {
	a := NewCatalog(1000, 1)
	b := NewCatalog(1000, 2)
	diff := 0
	for id := uint64(0); id < 100; id++ {
		if a.Object(id).Size != b.Object(id).Size {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("different seeds changed only %d/100 sizes", diff)
	}
}

func TestObjectKinds(t *testing.T) {
	c := NewCatalog(1000, 3)
	static := c.Object(0)
	if static.Kind != KindStatic || !static.Cacheable() {
		t.Fatalf("object 0 = %+v, want static cacheable", static)
	}
	img := c.Object(c.CacheableTotal() - 1)
	if img.Kind != KindImage || !img.Cacheable() {
		t.Fatalf("last cacheable = %+v, want image", img)
	}
	dyn := c.Object(c.Total() - 1)
	if dyn.Kind != KindDynamic || dyn.Cacheable() {
		t.Fatalf("last object = %+v, want dynamic non-cacheable", dyn)
	}
}

func TestKindString(t *testing.T) {
	if KindStatic.String() != "static" || KindImage.String() != "image" ||
		KindDynamic.String() != "dynamic" || Kind(99).String() != "unknown" {
		t.Fatal("Kind.String wrong")
	}
}

func TestObjectSizeBounds(t *testing.T) {
	c := NewCatalog(5000, 11)
	f := func(seed uint64) bool {
		id := seed % c.Total()
		o := c.Object(id)
		switch o.Kind {
		case KindStatic:
			return o.Size >= 1<<10 && o.Size <= 60<<10
		case KindImage:
			return o.Size >= 2<<10 && o.Size <= 512<<10
		case KindDynamic:
			return o.Size >= 2<<10 && o.Size <= 80<<10
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPanicsOutOfRange(t *testing.T) {
	c := NewCatalog(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ID did not panic")
		}
	}()
	c.Object(c.Total())
}

func TestPopularityInRangeAndCacheable(t *testing.T) {
	c := NewCatalog(2000, 5)
	p := NewPopularity(c, rng.New(9), 0.9)
	for i := 0; i < 20000; i++ {
		o := p.Next()
		if !o.Cacheable() {
			t.Fatalf("popularity sampler returned non-cacheable object %d", o.ID)
		}
		if o.ID >= c.CacheableTotal() {
			t.Fatalf("ID %d outside cacheable range", o.ID)
		}
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	c := NewCatalog(2000, 5)
	p := NewPopularity(c, rng.New(10), 0.9)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[p.Next().ID]++
	}
	// With Zipf popularity a small set of objects dominates: the most
	// popular single object should appear far above the uniform rate.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := float64(draws) / float64(c.CacheableTotal())
	if float64(max) < 20*uniform {
		t.Fatalf("top object count %d not skewed (uniform %.1f)", max, uniform)
	}
}

func TestRankToIDBijection(t *testing.T) {
	c := NewCatalog(500, 2)
	p := NewPopularity(c, rng.New(3), 0.8)
	seen := make(map[uint64]bool, p.N())
	for r := uint64(0); r < p.N(); r++ {
		id := p.rankToID(r)
		if id >= p.N() {
			t.Fatalf("rankToID(%d) = %d out of range", r, id)
		}
		if seen[id] {
			t.Fatalf("rankToID not injective: id %d repeated", id)
		}
		seen[id] = true
	}
}

func TestKindOfMatchesObjectKind(t *testing.T) {
	for _, scale := range []int{100, 1500, 10000} {
		c := NewCatalog(scale, 4)
		// The documented layout: static pages, then ImagesPerItem images
		// per item, then dynamic pages.
		nStatic := uint64(scale/10 + 50)
		nImages := uint64(scale * ImagesPerItem)
		for id := uint64(0); id < c.Total(); id++ {
			want := KindDynamic
			switch {
			case id < nStatic:
				want = KindStatic
			case id < nStatic+nImages:
				want = KindImage
			}
			if k := c.kindOf(id); k != want {
				t.Fatalf("scale %d: kindOf(%d) = %v, want %v", scale, id, k, want)
			}
			if k := c.Object(id).Kind; k != want {
				t.Fatalf("scale %d: Object(%d).Kind = %v, want %v", scale, id, k, want)
			}
		}
	}
}

func TestSizeTableMatchesFirstDraw(t *testing.T) {
	const scale, seed = 1500, 21
	// A fresh catalog read in ID order draws every size exactly once, so
	// first holds each object's first-draw size.
	ref := NewCatalog(scale, seed)
	first := make([]Object, ref.Total())
	for id := range first {
		first[id] = ref.Object(uint64(id))
	}
	reverse := make([]uint64, len(first))
	for i := range reverse {
		reverse[i] = uint64(len(first) - 1 - i)
	}
	shuffled := make([]uint64, len(first))
	for i, j := range rng.New(5).Perm(len(first)) {
		shuffled[i] = uint64(j)
	}
	for name, order := range map[string][]uint64{"reverse": reverse, "shuffled": shuffled} {
		c := NewCatalog(scale, seed)
		for pass := 1; pass <= 2; pass++ {
			for _, id := range order {
				if got := c.Object(id); got != first[id] {
					t.Fatalf("%s order, read %d: Object(%d) = %+v, want %+v", name, pass, id, got, first[id])
				}
			}
		}
	}
}

// nextKindLoop is the reference NextKind: draw until the kind matches.
func nextKindLoop(p *Popularity, k Kind) Object {
	for {
		if o := p.Next(); o.Kind == k {
			return o
		}
	}
}

func TestNextKindMatchesRedrawLoop(t *testing.T) {
	c := NewCatalog(2000, 8)
	for _, k := range []Kind{KindStatic, KindImage} {
		got := NewPopularity(c, rng.New(13), 0.95)
		want := NewPopularity(NewCatalog(2000, 8), rng.New(13), 0.95)
		for i := 0; i < 10000; i++ {
			g, w := got.NextKind(k), nextKindLoop(want, k)
			if g != w {
				t.Fatalf("%v draw %d: NextKind = %+v, redraw loop = %+v", k, i, g, w)
			}
		}
	}
}

func TestNextKindRejectsDynamic(t *testing.T) {
	p := NewPopularity(NewCatalog(100, 1), rng.New(1), 0.9)
	defer func() {
		if recover() == nil {
			t.Fatal("NextKind(KindDynamic) did not panic")
		}
	}()
	p.NextKind(KindDynamic)
}

func BenchmarkCatalogObject(b *testing.B) {
	c := NewCatalog(10000, 1)
	var sink Object
	for i := 0; i < b.N; i++ {
		sink = c.Object(uint64(i) % c.Total())
	}
	_ = sink
}

func BenchmarkPopularityNext(b *testing.B) {
	c := NewCatalog(10000, 1)
	p := NewPopularity(c, rng.New(1), 0.9)
	for i := 0; i < b.N; i++ {
		p.Next()
	}
}
