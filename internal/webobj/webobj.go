// Package webobj models the population of web objects served by the
// simulated TPC-W store: static pages, product images and dynamically
// generated pages. Object sizes are deterministic functions of the object
// ID; each catalog memoizes them in a table filled on first reference, so
// the random size is drawn at most once per object. Popularity follows a
// Zipf distribution as observed for web traffic.
package webobj

import "webharmony/internal/rng"

// Kind classifies an object by how it is produced and whether a proxy may
// cache it.
type Kind int

const (
	// KindStatic is a fixed HTML page or style asset; always cacheable.
	KindStatic Kind = iota
	// KindImage is a product image; cacheable and comparatively large.
	KindImage
	// KindDynamic is generated per request by the application server
	// (possibly with database queries); never cacheable.
	KindDynamic
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindImage:
		return "image"
	case KindDynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Object is one addressable web object.
type Object struct {
	ID   uint64
	Kind Kind
	Size int64 // bytes
}

// Cacheable reports whether a proxy is allowed to cache the object.
func (o Object) Cacheable() bool { return o.Kind != KindDynamic }

// Catalog describes the object population for a store of a given TPC-W
// scale factor (number of items). Objects are identified by dense IDs:
//
//	[0, nStatic)                      static pages
//	[nStatic, nStatic+nImages)        product images (several per item)
//	[nStatic+nImages, Total)          dynamic page identities
//
// A Catalog memoizes object sizes as they are first referenced, so it is
// not safe for concurrent use; each simulated system owns its own.
type Catalog struct {
	scale    int
	nStatic  uint64
	nImages  uint64
	nDynamic uint64
	sizeSeed uint64
	// sizes[id] is the object's size once drawn, 0 before: every kind's
	// clamp minimum is at least 1 KB, so 0 is never a drawn size. Filled
	// on first reference rather than up front, so building a catalog
	// stays one zeroed allocation.
	sizes []int32
}

// ImagesPerItem is the number of product images per catalog item
// (thumbnail and full size, per the TPC-W page layouts).
const ImagesPerItem = 2

// NewCatalog creates the object population for a store selling scale items
// (the paper uses scale = 10,000). sizeSeed makes object sizes
// reproducible.
func NewCatalog(scale int, sizeSeed uint64) *Catalog {
	if scale <= 0 {
		panic("webobj: scale must be positive")
	}
	c := &Catalog{
		scale:    scale,
		nStatic:  uint64(scale)/10 + 50, // site chrome + per-category pages
		nImages:  uint64(scale) * ImagesPerItem,
		nDynamic: uint64(scale) + 1000, // product-detail and result pages
		sizeSeed: sizeSeed,
	}
	c.sizes = make([]int32, c.Total())
	return c
}

// Scale returns the catalog's item count.
func (c *Catalog) Scale() int { return c.scale }

// Total returns the total number of distinct objects.
func (c *Catalog) Total() uint64 { return c.nStatic + c.nImages + c.nDynamic }

// CacheableTotal returns the number of proxy-cacheable objects.
func (c *Catalog) CacheableTotal() uint64 { return c.nStatic + c.nImages }

// Object returns the object with the given ID. Sizes are deterministic:
// the same (catalog seed, ID) always yields the same size, whatever order
// the IDs are referenced in.
func (c *Catalog) Object(id uint64) Object {
	if id >= c.Total() {
		panic("webobj: object ID out of range")
	}
	k := c.kindOf(id)
	size := c.sizes[id]
	if size == 0 {
		size = c.drawSize(id, k)
		c.sizes[id] = size
	}
	return Object{ID: id, Kind: k, Size: int64(size)}
}

// kindOf returns the kind of an in-range ID from the ID layout alone.
func (c *Catalog) kindOf(id uint64) Kind {
	switch {
	case id < c.nStatic:
		return KindStatic
	case id < c.nStatic+c.nImages:
		return KindImage
	default:
		return KindDynamic
	}
}

// drawSize draws the size of object id of kind k from a random source
// derived from the catalog seed and the ID alone.
func (c *Catalog) drawSize(id uint64, k Kind) int32 {
	src := rng.Seeded(c.sizeSeed ^ (id * 0x9e3779b97f4a7c15) ^ 0xC0FFEE)
	switch k {
	case KindStatic:
		// Static pages: 2–30 KB, log-normal-ish.
		return clampSize(int64(src.LogNormal(8.8, 0.6)), 1<<10, 60<<10) // median ≈ 6.6 KB
	case KindImage:
		// Images: heavy-tailed Pareto, 2 KB – 512 KB (thumbnails dominate).
		return clampSize(int64(src.Pareto(3<<10, 1.5)), 2<<10, 512<<10)
	default:
		// Dynamic pages: 4–40 KB of generated HTML.
		return clampSize(int64(src.LogNormal(9.3, 0.5)), 2<<10, 80<<10) // median ≈ 11 KB
	}
}

func clampSize(v, lo, hi int64) int32 {
	if v < lo {
		return int32(lo)
	}
	if v > hi {
		return int32(hi)
	}
	return int32(v)
}

// Popularity draws cacheable object references with Zipf popularity. The
// permutation of ranks to IDs is derived from the seed so that popular
// objects are spread across static pages and images.
type Popularity struct {
	cat  *Catalog
	zipf *rng.Zipf
	// rank → object id mapping via a cheap deterministic permutation
	a, b uint64
	n    uint64
	mask uint64 // pow2At(n) - 1
}

// NewPopularity creates a Zipf popularity sampler over the catalog's
// cacheable objects with exponent theta (use ≈ 0.8–0.99 for web traffic).
func NewPopularity(cat *Catalog, src *rng.Source, theta float64) *Popularity {
	n := cat.CacheableTotal()
	p := &Popularity{
		cat:  cat,
		zipf: rng.NewZipf(src, n, theta),
		n:    n,
		mask: pow2At(n) - 1,
	}
	// Affine permutation rank → id over [0, 2^k), 2^k = pow2At(n): an odd
	// multiplier is invertible modulo 2^k, so x ↦ a·x + b (mod 2^k) is a
	// bijection, and cycle-walking (re-applying it until the value falls
	// below n) restricts that bijection to one on [0, n).
	p.a = src.Uint64() | 1
	p.b = src.Uint64()
	return p
}

// pow2At returns the smallest power of two >= n.
func pow2At(n uint64) uint64 {
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// rankToID maps a popularity rank to an object ID bijectively using an
// affine permutation over the next power of two with cycle-walking.
func (p *Popularity) rankToID(rank uint64) uint64 {
	x := rank
	for {
		x = (x*p.a + p.b) & p.mask
		if x < p.n {
			return x
		}
	}
}

// Next draws the next referenced cacheable object.
func (p *Popularity) Next() Object {
	rank := p.zipf.Next()
	return p.cat.Object(p.rankToID(rank))
}

// NextKind draws referenced objects until one of kind k comes up and
// returns it: the same draws, and the same object, as calling Next until
// its Kind is k. Rejected draws are classified by ID alone, so only the
// returned object's size is ever looked up. k must be cacheable
// (KindStatic or KindImage); the sampler never draws a dynamic page.
func (p *Popularity) NextKind(k Kind) Object {
	if k == KindDynamic {
		panic("webobj: popularity draws only cacheable kinds")
	}
	for {
		id := p.rankToID(p.zipf.Next())
		if p.cat.kindOf(id) == k {
			return p.cat.Object(id)
		}
	}
}

// N returns the number of objects the sampler draws from.
func (p *Popularity) N() uint64 { return p.n }
