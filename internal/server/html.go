package server

import (
	"html/template"
	"net/http"

	"repro/internal/store"
	"repro/internal/temporal"
)

// The HTML UI is two pages: the dataset index (Figure 3's selection
// step) and the per-dataset workbench (constraint editor, solver
// controls, result statistics). Interactivity is plain JavaScript
// against the JSON API.

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>TeCoRe — Temporal Conflict Resolution</title>
<style>
body { font-family: sans-serif; margin: 2rem; max-width: 60rem; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: .3rem .6rem; text-align: left; }
code { background: #f2f2f2; padding: 0 .2rem; }
</style></head><body>
<h1>TeCoRe</h1>
<p>Temporal conflict resolution in uncertain temporal knowledge graphs.
Select a dataset to edit constraints and compute the most probable
conflict-free knowledge graph.</p>
<table>
<tr><th>Dataset</th><th>Facts</th><th>Predicates</th></tr>
{{range .}}
<tr><td><a href="/dataset/{{.Name}}">{{.Name}}</a></td>
<td>{{.Facts}}</td><td>{{len .Predicates}}</td></tr>
{{end}}
</table>
<h2>Upload</h2>
<p>POST TQuads to <code>/api/datasets</code> as
<code>{"name": "...", "tquads": "..."}</code>, or generate a dataset with
<code>{"name": "...", "generate": "football", "players": 1000}</code>.</p>
</body></html>`))

var datasetTmpl = template.Must(template.New("dataset").Parse(`<!DOCTYPE html>
<html><head><title>TeCoRe — {{.Name}}</title>
<style>
body { font-family: sans-serif; margin: 2rem; max-width: 70rem; }
table { border-collapse: collapse; margin-bottom: 1rem; }
td, th { border: 1px solid #999; padding: .3rem .6rem; text-align: left; }
textarea { width: 100%; font-family: monospace; }
pre { background: #f7f7f7; padding: .6rem; overflow-x: auto; }
fieldset { margin-bottom: 1rem; }
</style></head><body>
<p><a href="/">&larr; datasets</a></p>
<h1>{{.Name}}</h1>
<table>
<tr><th>Predicate</th><th>Facts</th><th>Subjects</th><th>Span</th><th>Mean conf.</th></tr>
{{range .Predicates}}
<tr><td>{{.Predicate}}</td><td>{{.Count}}</td><td>{{.Subjects}}</td>
<td>{{.Span}}</td><td>{{printf "%.3f" .MeanConfidence}}</td></tr>
{{end}}
</table>

<fieldset><legend>Constraint builder (Allen relations)</legend>
<input id="pred1" list="preds" placeholder="predicate 1">
<select id="rel">{{range .Relations}}<option>{{.}}</option>{{end}}<option>disjoint</option><option>overlap</option></select>
<input id="pred2" list="preds" placeholder="predicate 2">
<label><input type="checkbox" id="distinct"> distinct objects</label>
<button onclick="buildConstraint()">add constraint</button>
<datalist id="preds">{{range .Predicates}}<option>{{.Predicate}}</option>{{end}}</datalist>
</fieldset>

<fieldset><legend>Rules &amp; constraints</legend>
<textarea id="rules" rows="10">{{.Program}}</textarea>
</fieldset>

<fieldset><legend>Solve</legend>
<select id="solver"><option value="mln">nRockIt (MLN)</option><option value="psl">nPSL (PSL)</option></select>
<label>threshold <input id="threshold" type="number" min="0" max="1" step="0.05" value="0"></label>
<button onclick="solve()">compute conflict-free KG</button>
</fieldset>

<div id="out"></div>
<script>
const dataset = {{.Name}};
async function buildConstraint() {
  const body = {
    pred1: document.getElementById('pred1').value,
    pred2: document.getElementById('pred2').value,
    relation: document.getElementById('rel').value,
    distinctObjects: document.getElementById('distinct').checked,
  };
  const r = await fetch('/api/constraint', {method: 'POST', body: JSON.stringify(body)});
  if (!r.ok) { alert(await r.text()); return; }
  const js = await r.json();
  const ta = document.getElementById('rules');
  ta.value = ta.value.trimEnd() + '\n' + js.rule + '\n';
}
async function solve() {
  const body = {
    dataset: dataset,
    rules: document.getElementById('rules').value,
    solver: document.getElementById('solver').value,
    threshold: parseFloat(document.getElementById('threshold').value) || 0,
  };
  const out = document.getElementById('out');
  out.textContent = 'solving…';
  const r = await fetch('/api/solve', {method: 'POST', body: JSON.stringify(body)});
  if (!r.ok) { out.textContent = await r.text(); return; }
  const js = await r.json();
  const s = js.stats;
  out.innerHTML = '<h2>Result statistics</h2>' +
    '<table><tr><th>Total facts</th><td>' + s.TotalFacts + '</td></tr>' +
    '<tr><th>Kept</th><td>' + s.KeptFacts + '</td></tr>' +
    '<tr><th>Removed (conflicting)</th><td>' + s.RemovedFacts + '</td></tr>' +
    '<tr><th>Inferred</th><td>' + s.InferredFacts + '</td></tr>' +
    '<tr><th>Conflict clusters</th><td>' + s.ConflictClusters + '</td></tr>' +
    '<tr><th>Solver</th><td>' + s.Solver + '</td></tr>' +
    '<tr><th>Runtime</th><td>' + (s.Runtime / 1e6).toFixed(1) + ' ms</td></tr></table>' +
    '<h3>Removed</h3><pre>' + (js.removed || []).join('\n') + '</pre>' +
    '<h3>Inferred</h3><pre>' + (js.inferred || []).join('\n') + '</pre>' +
    '<h3>Consistent</h3><pre>' + (js.kept || []).join('\n') + '</pre>';
}
</script>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var infos []DatasetInfo
	for _, name := range s.datasetNames() {
		d, _ := s.dataset(name)
		infos = append(infos, DatasetInfo{Name: d.name, Facts: d.stats.Facts, Predicates: d.stats.Predicates})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, infos); err != nil {
		httpError(w, http.StatusInternalServerError, "rendering: %v", err)
	}
}

type datasetPage struct {
	Name       string
	Predicates []store.PredicateStat
	Program    string
	Relations  []string
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	page := datasetPage{
		Name:       d.name,
		Predicates: d.stats.Predicates,
		Program:    d.program,
	}
	for rel := temporal.Relation(0); rel < temporal.NumRelations; rel++ {
		page.Relations = append(page.Relations, rel.String())
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := datasetTmpl.Execute(w, page); err != nil {
		httpError(w, http.StatusInternalServerError, "rendering: %v", err)
	}
}
