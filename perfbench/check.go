package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"silenttracker/st"
)

// sameBytes reports where got first differs from want, or nil when
// they are byte-identical.
func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("outputs differ at byte %d (got %d bytes, want %d)", i, len(got), len(want))
}

// render runs a session and returns its stcampaign text bytes.
func render(ctx context.Context, c *st.Client, exp string, opts ...st.Option) ([]byte, *st.Result, error) {
	res, err := c.Run(ctx, exp, opts...)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := st.RenderCampaignText(&buf, res); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

// goldenCheck anchors the program on its only recorded reference: all
// registered experiments, quick trials at default seeds, rendered
// without a cache, must match st/testdata/golden/campaign_<name>.txt
// byte for byte.
func goldenCheck(ctx context.Context, dir string) error {
	c, err := st.NewClient(st.WithQuick())
	if err != nil {
		return err
	}
	defer c.Close()
	infos := c.Experiments()
	if len(infos) == 0 {
		return fmt.Errorf("no experiments registered")
	}
	var bad []string
	for _, in := range infos {
		want, err := os.ReadFile(filepath.Join(dir, "campaign_"+in.Name+".txt"))
		if err != nil {
			return err
		}
		got, _, err := render(ctx, c, in.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		if err := sameBytes(got, want); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", in.Name, err))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// splitCampaigns cuts stcampaign run stdout into one section per
// experiment, keyed by name. Each section keeps its own banner, so it
// is exactly the bytes a single-experiment run (or a daemon job's
// /result) prints.
func splitCampaigns(out []byte) (map[string][]byte, error) {
	const mark = "\n== campaign "
	sections := map[string][]byte{}
	rest := out
	for len(rest) > 0 {
		if !bytes.HasPrefix(rest, []byte(mark)) {
			return nil, fmt.Errorf("stcampaign output: no campaign banner at %q", string(rest[:min(len(rest), 40)]))
		}
		end := bytes.Index(rest[1:], []byte(mark))
		section := rest
		if end >= 0 {
			section, rest = rest[:end+1], rest[end+1:]
		} else {
			rest = nil
		}
		name, _, _ := strings.Cut(string(section[len(mark):]), " ==")
		sections[name] = section
	}
	return sections, nil
}
