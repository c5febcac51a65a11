package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pmrace-go/pmrace/api"
)

// Terminal campaign records are persisted as DataDir/campaigns/<id>.json so
// a pmraced restart does not forget finished work: GET /campaigns/{id}
// keeps answering for campaigns that completed before the restart, and the
// cross-campaign bug dedup store keeps flagging re-discoveries of bugs a
// pre-restart campaign already reported. Only terminal states are written —
// a pending or running campaign that dies with the process was never
// durable and reappearing as "running" with no workers would be a lie.

// campaignsDir is the durable campaign-record directory.
func (s *Supervisor) campaignsDir() string {
	return filepath.Join(s.cfg.DataDir, "campaigns")
}

// persistCampaign writes c's final document. Best-effort: the control plane
// keeps serving from memory if the disk write fails. The record lands via
// write-to-temp, fsync, rename, then fsync of the directory, so a crash
// never leaves a torn .json for the next restore to trip over (dot-prefixed
// temp names are skipped there) and a record once renamed survives a power
// loss.
func (s *Supervisor) persistCampaign(c *campaign) {
	doc := s.document(c)
	if !doc.State.Terminal() {
		return
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	dir := s.campaignsDir()
	tmp := filepath.Join(dir, "."+doc.ID+".json.tmp")
	if err := writeSynced(tmp, raw); err != nil {
		_ = os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(dir, doc.ID+".json")); err != nil {
		_ = os.Remove(tmp)
		return
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// writeSynced creates path with raw as its contents and fsyncs it before
// closing.
func writeSynced(path string, raw []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// restoreCampaigns loads every persisted record into the campaign table as
// a restored (fuzzer-less) terminal campaign, re-seeds the cross-campaign
// dedup store from their bug inventories, and advances the ID allocator
// past every restored ID. Called from New with s unpublished, so no lock.
func (s *Supervisor) restoreCampaigns() error {
	ents, err := os.ReadDir(s.campaignsDir())
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.campaignsDir(), name))
		if err != nil {
			continue
		}
		doc := new(api.Campaign)
		if err := json.Unmarshal(raw, doc); err != nil || doc.ID == "" || !doc.State.Terminal() {
			continue // torn or foreign file; skip rather than refuse to start
		}
		if _, dup := s.campaigns[doc.ID]; dup {
			continue
		}
		done := make(chan struct{})
		close(done)
		c := &campaign{
			id: doc.ID, spec: doc.Spec, restored: doc,
			state: doc.State, created: doc.Created, started: doc.Started,
			finished: doc.Finished, bugs: append([]api.Bug(nil), doc.Bugs...),
			done: done,
		}
		if doc.Error != "" {
			c.err = errors.New(doc.Error)
		}
		if doc.Spec.Artifacts {
			// Bundles outlive the process; re-attach them so the artifact
			// endpoints keep serving after the restart.
			c.artDir = filepath.Join(s.cfg.DataDir, "artifacts", doc.ID)
		}
		s.campaigns[doc.ID] = c
		ids = append(ids, doc.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(doc.ID, "c")); err == nil && n > s.nextID {
			s.nextID = n
		}
		byFP := s.seen[doc.Spec.Target]
		if byFP == nil {
			byFP = map[string]string{}
			s.seen[doc.Spec.Target] = byFP
		}
		for _, b := range doc.Bugs {
			owner := doc.ID
			if b.Duplicate && b.FirstReportedBy != "" {
				owner = b.FirstReportedBy
			}
			if _, ok := byFP[b.Fingerprint]; !ok {
				byFP[b.Fingerprint] = owner
			}
		}
	}
	sort.Strings(ids)
	s.order = append(s.order, ids...)
	return nil
}
