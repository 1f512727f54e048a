# -*- coding: utf-8 -*-
"""Report rendering: the sink of the reference's report mode
(generate_report, src/main.py:44-123 + src/templates/report_template.html).

Renders the A1 per-map and A2 per-check summaries and the CHECKED_ERROR
rows of the A3 merge, which ``pipeline.report_frames`` gets from one
shuffle of the flags, with the reference's ordering rules (A4,
src/main.py:70,92,114-118):

* overall maps sorted by name;
* check types sorted by fully-qualified name, with the class docstring as
  the explanation;
* per map, entities sorted by display name;
* the error section lists only CHECKED_ERROR rows (A6 — the template's
  ``result.value == 3`` filter).

Rendering is driver-side string assembly over ALREADY-AGGREGATED frames
and the error rows: the workers drop every other merged row."""

from __future__ import annotations

import html as _html

from . import pipeline


def render_report(flags_ds, *, date=None) -> str:
    """flags Dataset -> HTML string structured like the reference's
    src/templates/report_template.html: a Summary block (maps processed +
    global totals), a "By countries" per-map table, a "By check type"
    table, and per-map "Errors" sections whose entity cells LINK to
    ``https://www.openstreetmap.org/<type>/<id>`` (template line 99).
    One message per (entity, check) row in the merged model, so the
    template's multi-message <ul> branch cannot occur."""
    import datetime as _dt
    summary, per_check, errors = pipeline.report_frames(flags_ds)
    d = date or _dt.date.today()

    def esc(s) -> str:
        return _html.escape(str(s))

    out = ["<html><head><meta charset='utf-8'>"
           "<title>Serbian OSM lint - Results</title></head>"
           "<body><div class='container-fluid'><div id='bodyColumn'>",
           "<div class='section'>"
           f"<h2>Serbian OSM lint report for {d.strftime('%d.%m.%Y.')}</h2>"
           "</div>"]

    # Summary (template lines 20-37): maps processed + global totals
    out.append("<div class='section'><h2><a name='Summary'></a>Summary</h2>"
               "<table class='table table-striped' border='0'><tbody>"
               "<tr class='a'><th>Maps processed</th><th>Total checks</th>"
               "<th>Total errors</th><th>Auto fixable errors</th></tr>"
               f"<tr class='b'><td>{len(summary)}</td>"
               f"<td>{summary.count_map_checks.sum()}</td>"
               f"<td>{summary.count_map_errors.sum()}</td>"
               f"<td>{summary.count_map_fixable_errors.sum()}</td></tr>"
               "</tbody></table></div>")

    # By countries (template lines 39-60): A1 rows, maps sorted by name
    out.append("<div class='section'><h2><a name='Countries'></a>"
               "By countries</h2>"
               "<table class='table table-striped' border='0'><tbody>"
               "<tr class='a'><th>Country</th><th>Total checks</th>"
               "<th>Total errors</th><th>Auto fixable errors</th></tr>")
    for r in summary.itertuples():
        out.append(f"<tr class='b'><td>{esc(r.map_name)}</td>"
                   f"<td>{r.count_map_checks}</td><td>{r.count_map_errors}"
                   f"</td><td>{r.count_map_fixable_errors}</td></tr>")
    out.append("</tbody></table></div>")

    # By check type (template lines 62-81): A2, sorted by FQN
    out.append("<div class='section'><h2><a name='Rules'></a>"
               "By check type</h2>"
               "<table class='table table-striped' border='0'><tbody>"
               "<tr class='a'><th>Check</th><th>Explanation</th>"
               "<th>Total checks</th><th>Total errors</th></tr>")
    for r in per_check.itertuples():
        out.append(f"<tr class='b'><td>{esc(r.check_name)}</td>"
                   f"<td>{esc(r.explanation)}</td>"
                   f"<td>{r.count_total_checks}</td>"
                   f"<td>{r.count_total_errors}</td></tr>")
    out.append("</tbody></table></div>")

    # Errors (template lines 83-120): per overall map, CHECKED_ERROR rows
    # only (result.value == 3, A6), entities sorted by display name (A4),
    # entity cell links to the OSM object
    out.append("<div class='section'><h2><a name='Errors'></a>Errors</h2>")
    for overall, sub in errors.groupby("map_overall", sort=True):
        sub = sub.sort_values(["display_name", "check_name"], kind="stable")
        out.append(f"<div class='section'><h3 id='{esc(overall)}'>"
                   f"{esc(overall)}</h3>"
                   "<table class='table table-striped' border='0'><tbody>"
                   "<tr class='a'><th>Entity</th><th>Check</th>"
                   "<th>Message</th></tr>")
        for r in sub.itertuples():
            href = (f"https://www.openstreetmap.org/"
                    f"{esc(r.entity_type)}/{r.osm_id}")
            out.append(
                f"<tr class='b'><td><a href='{href}'>"
                f"{esc(r.display_name)}</a></td>"
                f"<td>{esc(r.check_name)}</td>"
                f"<td>{esc(r.message)}</td></tr>")
        out.append("</tbody></table></div>")
    out.append("</div></div></div></body></html>")
    return "\n".join(out)


def write_report(data_dir: str, out_path: str) -> str:
    """Lint ``data_dir`` and write its HTML report to ``out_path``.  The
    flags stream straight into ``pipeline.report_frames``: no scratch
    files, so nothing ties the run to one node."""
    html = render_report(pipeline.flags_dataset(data_dir))
    with open(out_path, "w") as f:
        f.write(html)
    return out_path
