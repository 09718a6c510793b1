#include "obs/http/dash.hpp"

namespace quicsand::obs::http {

namespace {

constexpr std::string_view kDashHtml = R"DASH(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>quicsand dash</title>
<style>
  :root { color-scheme: dark; }
  body { background: #101418; color: #d8dee4; margin: 0;
         font: 13px/1.4 ui-monospace, SFMono-Regular, Menlo, monospace; }
  header { display: flex; align-items: baseline; gap: 16px;
           padding: 10px 16px; border-bottom: 1px solid #2a3138; }
  header h1 { font-size: 15px; margin: 0; color: #7ee2a8; }
  header .meta { color: #8a949e; }
  #grid, #latgrid { display: grid; gap: 10px; padding: 12px 16px;
          grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); }
  #latgrid { padding-top: 0; }
  .card { background: #161b21; border: 1px solid #2a3138;
          border-radius: 6px; padding: 8px 10px; }
  .card .name { color: #9fb4c7; overflow: hidden; white-space: nowrap;
                text-overflow: ellipsis; }
  .card .value { float: right; color: #7ee2a8; }
  .card .value .p99 { color: #e2a87e; }
  canvas { width: 100%; height: 48px; display: block; margin-top: 4px; }
  #lathead { font-size: 13px; color: #9fb4c7; margin: 4px 16px 0; }
  #alerts { padding: 0 16px 16px; }
  #alerts h2 { font-size: 13px; color: #e2a87e; margin: 8px 0 4px; }
  #alerts div { color: #b9c2cb; }
  .err { color: #e27e7e; padding: 12px 16px; }
</style>
</head>
<body>
<header>
  <h1>quicsand</h1>
  <span class="meta" id="meta">connecting&hellip;</span>
</header>
<div id="grid"></div>
<div id="lathead" hidden>histogram quantiles &mdash;
  <span style="color:#7ee2a8">p50</span> ·
  <span style="color:#d8dee4">p90</span> ·
  <span style="color:#e2a87e">p99</span></div>
<div id="latgrid"></div>
<div id="alerts"></div>
<script>
"use strict";
// Counters are cumulative: plot per-second deltas of `last`. Gauges
// plot `last` directly. Poll cadence matches the sampler's default.
const POLL_MS = 2000, WINDOW_US = 10 * 60 * 1000000;
const cards = new Map();

function card(name, gridId) {
  if (cards.has(name)) return cards.get(name);
  const div = document.createElement("div");
  div.className = "card";
  div.innerHTML = '<span class="value"></span><div class="name"></div>' +
                  "<canvas></canvas>";
  div.querySelector(".name").textContent = name;
  document.getElementById(gridId || "grid").appendChild(div);
  const entry = { value: div.querySelector(".value"),
                  canvas: div.querySelector("canvas") };
  cards.set(name, entry);
  return entry;
}

// lines: [{values, color}] sharing one y-scale — a single series for
// the rate cards, the p50/p90/p99 trio for a histogram card.
function spark(canvas, lines) {
  const w = canvas.clientWidth || 320, h = canvas.clientHeight || 48;
  canvas.width = w; canvas.height = h;
  const ctx = canvas.getContext("2d");
  ctx.clearRect(0, 0, w, h);
  const all = lines.flatMap(function (l) { return l.values; });
  if (all.length < 2) return;
  const max = Math.max(...all, 1e-9), min = Math.min(...all, 0);
  lines.forEach(function (l) {
    if (l.values.length < 2) return;
    const dx = w / (l.values.length - 1);
    ctx.beginPath();
    l.values.forEach(function (v, i) {
      const y = h - 2 - (h - 6) * ((v - min) / (max - min || 1));
      if (i === 0) ctx.moveTo(0, y); else ctx.lineTo(i * dx, y);
    });
    ctx.strokeStyle = l.color || "#7ee2a8";
    ctx.lineWidth = 1.25; ctx.stroke();
  });
}

function fmt(v) {
  if (Math.abs(v) >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (Math.abs(v) >= 1e3) return (v / 1e3).toFixed(1) + "k";
  return Math.abs(v) >= 100 ? v.toFixed(0) : v.toFixed(1);
}

async function getJSON(url) {
  const response = await fetch(url);
  if (!response.ok) throw new Error(url + " -> " + response.status);
  return response.json();
}

async function querySeries(info) {
  // Anchor at the catalog's newest sample and ask for the trailing
  // window only, so the server answers from its finest tier.
  const from = Math.max(0, info.last_us - WINDOW_US);
  return getJSON("/tsdb/query?series=" +
                 encodeURIComponent(info.name) +
                 "&from=" + from + "&step=0");
}

async function drawSeries(info) {
  const q = await querySeries(info);
  // columns: [t_us, min, max, sum, count, last]
  const pts = q.points;
  if (!pts.length) return q;
  const cumulative = q.kind !== "gauge";
  const values = [];
  for (let i = cumulative ? 1 : 0; i < pts.length; i++) {
    if (cumulative) {
      const dt = (pts[i][0] - pts[i - 1][0]) / 1e6;
      values.push(dt > 0 ? (pts[i][5] - pts[i - 1][5]) / dt : 0);
    } else {
      values.push(pts[i][5]);
    }
  }
  const entry = card(info.name);
  const current = values.length ? values[values.length - 1] : 0;
  entry.value.textContent = cumulative ? fmt(current) + "/s" : fmt(current);
  spark(entry.canvas, [{ values: values }]);
  return q;
}

// One card per histogram base: the sampler bridges each histogram to
// <base>.p50/.p90/.p99 gauge series; plot the trio on one y-scale and
// headline the current p50/p99.
const LAT_COLORS = { p50: "#7ee2a8", p90: "#d8dee4", p99: "#e2a87e" };

async function drawQuantiles(base, quantiles) {
  const lines = [], current = {};
  for (const q of ["p50", "p90", "p99"]) {
    if (!quantiles[q]) continue;
    const resp = await querySeries(quantiles[q]);
    const values = resp.points.map(function (p) { return p[5]; });
    if (values.length) current[q] = values[values.length - 1];
    lines.push({ values: values, color: LAT_COLORS[q] });
  }
  const entry = card(base, "latgrid");
  spark(entry.canvas, lines);
  entry.value.innerHTML =
    (current.p50 !== undefined ? fmt(current.p50) : "&ndash;") +
    ' / <span class="p99">' +
    (current.p99 !== undefined ? fmt(current.p99) : "&ndash;") + "</span>";
}

async function refresh() {
  try {
    const catalog = await getJSON("/tsdb/series");
    document.getElementById("meta").textContent =
      catalog.series.length + " series · " +
      catalog.tiers.map(function (t) {
        return (t.step_us / 1e6) + "s×" + t.buckets;
      }).join(" → ") + " · " + new Date().toISOString();
    let annotations = [];
    // Quantile gauges fold into per-base histogram cards; everything
    // else stays an individual rate/level card in the main grid.
    const histograms = new Map();
    for (const info of catalog.series) {
      const m = info.name.match(/^(.*)\.(p50|p90|p99)$/);
      if (m) {
        if (!histograms.has(m[1])) histograms.set(m[1], {});
        histograms.get(m[1])[m[2]] = info;
        continue;
      }
      const q = await drawSeries(info);
      if (q && q.annotations) annotations = q.annotations;
    }
    document.getElementById("lathead").hidden = histograms.size === 0;
    for (const [base, quantiles] of histograms) {
      await drawQuantiles(base, quantiles);
    }
    const alerts = document.getElementById("alerts");
    if (annotations.length) {
      alerts.innerHTML = "<h2>events</h2>";
      annotations.slice(-12).reverse().forEach(function (a) {
        const line = document.createElement("div");
        line.textContent = new Date(a.t_us / 1000).toISOString() + "  " +
          a.kind + "  " + a.victim + "  " + a.packets + " pkts @ " +
          a.peak_pps + " pps";
        alerts.appendChild(line);
      });
    }
  } catch (error) {
    document.getElementById("meta").textContent = String(error);
  }
  setTimeout(refresh, POLL_MS);
}
refresh();
</script>
</body>
</html>
)DASH";

}  // namespace

std::string_view dash_html() { return kDashHtml; }

}  // namespace quicsand::obs::http
