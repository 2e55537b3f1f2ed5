package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Chart renders one or more named series as an ASCII line chart, for the
// sweep tools' terminal output.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height of the plot area in characters; defaults 60x16.
	Width, Height int

	series []series
}

type series struct {
	name   string
	mark   byte
	xs, ys []float64
}

var marks = []byte{'*', 'o', '+', 'x', '#', '@'}

// AddSeries appends a named series; points need not be sorted.
func (c *Chart) AddSeries(name string, xs, ys []float64) {
	if len(xs) != len(ys) {
		panic("report: chart series length mismatch")
	}
	mark := marks[len(c.series)%len(marks)]
	sx := append([]float64(nil), xs...)
	sy := append([]float64(nil), ys...)
	idx := make([]int, len(sx))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sx[idx[a]] < sx[idx[b]] })
	oxs, oys := make([]float64, len(sx)), make([]float64, len(sy))
	for i, j := range idx {
		oxs[i], oys[i] = sx[j], sy[j]
	}
	c.series = append(c.series, series{name: name, mark: mark, xs: oxs, ys: oys})
}

// String renders the chart.
func (c *Chart) String() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 60
	}
	if h <= 0 {
		h = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1) // y axis starts at zero: counts
	for _, s := range c.series {
		for i := range s.xs {
			minX = math.Min(minX, s.xs[i])
			maxX = math.Max(maxX, s.xs[i])
			maxY = math.Max(maxY, s.ys[i])
		}
	}
	if len(c.series) == 0 || maxX == minX {
		return c.Title + "\n(no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	put := func(x, y float64, mark byte) {
		col := int(math.Round((x - minX) / (maxX - minX) * float64(w-1)))
		row := int(math.Round((y - minY) / (maxY - minY) * float64(h-1)))
		r := h - 1 - row
		if r >= 0 && r < h && col >= 0 && col < w {
			grid[r][col] = mark
		}
	}
	for _, s := range c.series {
		// Linear interpolation between points so the series reads as a
		// curve, then the sample points themselves on top.
		for i := 1; i < len(s.xs); i++ {
			steps := w / max(1, len(s.xs)-1)
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(max(1, steps))
				put(s.xs[i-1]+f*(s.xs[i]-s.xs[i-1]), s.ys[i-1]+f*(s.ys[i]-s.ys[i-1]), '.')
			}
		}
	}
	for _, s := range c.series {
		for i := range s.xs {
			put(s.xs[i], s.ys[i], s.mark)
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	fmt.Fprintf(&b, "%s\n", c.YLabel)
	for r := 0; r < h; r++ {
		yv := minY + (maxY-minY)*float64(h-1-r)/float64(h-1)
		fmt.Fprintf(&b, "%10.0f |%s\n", yv, string(grid[r]))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g  %s\n", "", w/2, minX, w-w/2, maxX, c.XLabel)
	for _, s := range c.series {
		fmt.Fprintf(&b, "%12c %s\n", s.mark, s.name)
	}
	return b.String()
}
