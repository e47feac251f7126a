//! Trace exporters: Chrome trace-event JSON and an aligned-text timeline.
//!
//! Both exporters are pure functions of [`Tracer::records`], which is
//! already deterministic (see [`crate::span`]), so their output is
//! byte-identical across worker counts. The JSON is hand-assembled — no
//! serializer in the loop means full control over byte layout; the
//! workspace's vendored `serde_json` parses it back in tests and CI.
//!
//! ## Opening a trace
//!
//! Write [`Tracer::chrome_trace`] to a `.json` file and load it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`). Spans appear as `X`
//! slices and events as instants; `tid 0` is the sequential coordinator
//! and `tid 1..=8` are the `VIRTUAL_LANES` that fan-out task spans are
//! spread across by input index. Timestamps are logical ticks (one
//! "microsecond" per record boundary), not wall time — the horizontal axis
//! shows pipeline structure, not duration.

use crate::span::{EventRecord, SpanRecord, Tracer, VIRTUAL_LANES};

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_span_json(out: &mut String, pid: usize, s: &SpanRecord) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"id\":\"{:#018x}\",\"parent\":\"{:#018x}\"",
        json_escape(&s.name),
        s.start_tick,
        s.end_tick.saturating_sub(s.start_tick).max(1),
        s.lane,
        s.id,
        s.parent,
    ));
    if let Some(i) = s.index {
        out.push_str(&format!(",\"index\":{i}"));
    }
    if let Some(at) = s.sim_at {
        out.push_str(&format!(",\"sim_us\":{}", at.as_micros()));
    }
    if let Some(w) = s.wall_us {
        out.push_str(&format!(",\"wall_us\":{w}"));
    }
    if let Some(ctx) = s.remote {
        out.push_str(&format!(
            ",\"remote_trace\":\"{:#018x}\",\"remote_tick\":{}",
            ctx.trace_id, ctx.tick
        ));
    }
    out.push_str("}}");
}

fn push_event_json(out: &mut String, pid: usize, e: &EventRecord) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"s\":\"t\",\"args\":{{\"span\":\"{:#018x}\"",
        json_escape(&e.message),
        e.level.as_str(),
        e.tick,
        e.lane,
        e.span,
    ));
    if let Some(at) = e.sim_at {
        out.push_str(&format!(",\"sim_us\":{}", at.as_micros()));
    }
    out.push_str("}}");
}

/// Name the virtual lanes of process `pid` (Chrome-trace `M` records):
/// tid 0 is the coordinator, 1..=[`VIRTUAL_LANES`] the fan-out workers.
/// Always all of them, so layout never depends on which lanes were used.
fn push_thread_names(out: &mut String, pid: usize) {
    out.push_str(&format!(
        ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"coordinator\"}}}}"
    ));
    for lane in 1..=VIRTUAL_LANES {
        out.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{lane},\"args\":{{\"name\":\"virtual worker {lane}\"}}}}"
        ));
    }
}

/// Stitch several hosts' tracers into one Chrome trace.
///
/// Hosts are sorted by name before anything is emitted and assigned
/// pids `1..=N` in that order, each announced with `process_name` /
/// `process_sort_index` metadata plus the standard lane thread names;
/// within a host, spans and events keep the deterministic
/// `(start_tick, id)` / `(tick, span)` order from [`Tracer::records`].
/// The output is therefore byte-identical regardless of host
/// registration order or span flush interleaving. Spans opened by
/// [`Tracer::span_remote`](crate::Tracer::span_remote) carry
/// `remote_trace` / `remote_tick` args and a `parent` id that lives in
/// the originating host's process, stitching the mesh into one tree.
pub fn merged_chrome_trace(hosts: &[(&str, &Tracer)]) -> String {
    let mut hosts: Vec<(&str, &Tracer)> = hosts.to_vec();
    hosts.sort_by_key(|&(name, _)| name);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (name, _)) in hosts.iter().enumerate() {
        let pid = i + 1;
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
        out.push_str(&format!(
            ",{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
        ));
        push_thread_names(&mut out, pid);
    }
    for (i, (_, tracer)) in hosts.iter().enumerate() {
        let pid = i + 1;
        let (spans, events) = tracer.records();
        for s in &spans {
            out.push(',');
            push_span_json(&mut out, pid, s);
        }
        for e in &events {
            out.push(',');
            push_event_json(&mut out, pid, e);
        }
    }
    out.push_str("]}");
    if let Some((_, tracer)) = hosts.first() {
        tracer.note_export_bytes(out.len() as u64);
    }
    out
}

impl Tracer {
    /// Export the retained records as Chrome trace-event JSON.
    ///
    /// The output is byte-identical for a given logical execution
    /// regardless of worker count; `trace.export_bytes` is bumped by the
    /// output length.
    pub fn chrome_trace(&self) -> String {
        let (spans, events) = self.records();
        let mut out = String::with_capacity(256 + 160 * (spans.len() + events.len()));
        out.push_str("{\"traceEvents\":[");
        // Metadata: name the process and every virtual lane, always all of
        // them so layout never depends on which lanes happened to be used.
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"tero\"}}",
        );
        push_thread_names(&mut out, 1);
        for s in &spans {
            out.push(',');
            push_span_json(&mut out, 1, s);
        }
        for e in &events {
            out.push(',');
            push_event_json(&mut out, 1, e);
        }
        out.push_str("]}");
        self.note_export_bytes(out.len() as u64);
        out
    }

    /// Render the retained records as an aligned-text timeline: one line
    /// per span (indented by depth, `[start..end)` tick window first),
    /// with journal events interleaved beneath their owning span and
    /// run-level events at the end.
    pub fn render_timeline(&self) -> String {
        let (spans, events) = self.records();
        let evicted = self.evicted();
        let mut out = format!(
            "=== tero-trace timeline: {} spans, {} events, {} evicted ===\n",
            spans.len(),
            events.len(),
            evicted
        );
        // Depth via the parent chain; evicted parents count as roots.
        let depth_of = |span: &SpanRecord| -> usize {
            let mut depth = 0;
            let mut parent = span.parent;
            while parent != 0 {
                match spans.iter().find(|s| s.id == parent) {
                    Some(p) => {
                        depth += 1;
                        parent = p.parent;
                    }
                    None => break,
                }
            }
            depth
        };
        let tick_width = spans
            .iter()
            .map(|s| s.end_tick)
            .chain(events.iter().map(|e| e.tick))
            .max()
            .unwrap_or(0)
            .to_string()
            .len()
            .max(2);
        for s in &spans {
            let indent = "  ".repeat(depth_of(s));
            let label = match s.index {
                Some(i) => format!("{}[{i}]", s.name),
                None => s.name.to_string(),
            };
            let mut annot = format!("lane={}", s.lane);
            if let Some(at) = s.sim_at {
                annot.push_str(&format!(" sim={at}"));
            }
            if let Some(w) = s.wall_us {
                annot.push_str(&format!(" wall={w}us"));
            }
            out.push_str(&format!(
                "[{:>tw$}..{:>tw$}) {indent}{label:<40} {annot}\n",
                s.start_tick,
                s.end_tick,
                tw = tick_width,
            ));
            for e in events.iter().filter(|e| e.span == s.id && s.id != 0) {
                let mut eannot = String::new();
                if let Some(at) = e.sim_at {
                    eannot.push_str(&format!(" sim={at}"));
                }
                out.push_str(&format!(
                    "[{:>tw$}       ] {indent}  {:<5} {}{eannot}\n",
                    e.tick,
                    e.level.as_str(),
                    e.message,
                    tw = tick_width,
                ));
            }
        }
        let orphans: Vec<&EventRecord> = events
            .iter()
            .filter(|e| e.span == 0 || !spans.iter().any(|s| s.id == e.span))
            .collect();
        if !orphans.is_empty() {
            out.push_str("--- run-level / orphaned events ---\n");
            for e in orphans {
                out.push_str(&format!(
                    "[{:>tw$}       ] {:<5} {}\n",
                    e.tick,
                    e.level.as_str(),
                    e.message,
                    tw = tick_width,
                ));
            }
        }
        self.note_export_bytes(out.len() as u64);
        out
    }

    /// Alias for [`Tracer::render_timeline`], framed as the flight
    /// recorder's post-mortem dump (the ring buffer has already truncated
    /// history to the last N records).
    pub fn dump(&self) -> String {
        self.render_timeline()
    }
}

#[cfg(test)]
mod tests {
    use crate::span::{Level, Tracer};
    use tero_types::SimTime;

    fn sample_tracer() -> Tracer {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let root = tracer.span_at("pipeline.run", SimTime::EPOCH);
        let stage = tracer.stage(&root, "stage.extract");
        let traces: Vec<_> = (0..3)
            .map(|i| {
                let mut t = stage.task(i);
                t.set_sim_time(SimTime::from_mins(i));
                if i == 1 {
                    t.event(Level::Debug, "vote \"confused\"\n");
                }
                t.finish()
            })
            .collect();
        stage.flush(traces);
        root.event(Level::Warn, "api fault injected");
        drop(root);
        tracer.event(Level::Error, "kv write dropped");
        tracer
    }

    #[test]
    fn chrome_trace_is_valid_json_and_deterministic() {
        let a = sample_tracer().chrome_trace();
        let b = sample_tracer().chrome_trace();
        assert_eq!(a, b, "byte-identical across identical runs");
        let parsed: serde_json::Value = serde_json::from_str(&a).expect("valid JSON");
        let events = parsed
            .field("traceEvents")
            .as_array()
            .expect("traceEvents array");
        // 10 metadata + 4 spans + 3 events.
        assert_eq!(events.len(), 17);
    }

    #[test]
    fn merged_trace_is_sorted_by_host_and_stitches_remote_spans() {
        let client = Tracer::new();
        client.set_enabled(true);
        let server = Tracer::new();
        server.set_enabled(true);
        let op = client.span("net.kv");
        let ctx = op.context(0x1234).expect("recording");
        server.span_remote("server.kv", ctx).finish();
        op.finish();
        // Same content handed over in either host order → same bytes.
        let a = crate::export::merged_chrome_trace(&[("engine0", &client), ("shard0p", &server)]);
        let b = crate::export::merged_chrome_trace(&[("shard0p", &server), ("engine0", &client)]);
        assert_eq!(a, b, "host registration order must not matter");
        let parsed: serde_json::Value = serde_json::from_str(&a).expect("valid JSON");
        assert!(a.contains("\"name\":\"engine0\""));
        assert!(a.contains("\"name\":\"shard0p\""));
        assert!(a.contains("\"remote_trace\":\"0x0000000000001234\""));
        // The server span's parent is the client op span id.
        let (client_spans, _) = client.records();
        let (server_spans, _) = server.records();
        assert_eq!(server_spans[0].parent, client_spans[0].id);
        assert_eq!(server_spans[0].remote, Some(ctx));
        drop(parsed);
    }

    #[test]
    fn chrome_trace_escapes_messages() {
        let json = sample_tracer().chrome_trace();
        assert!(json.contains("vote \\\"confused\\\"\\n"));
    }

    #[test]
    fn timeline_shows_hierarchy_and_events() {
        let text = sample_tracer().render_timeline();
        assert!(text.contains("pipeline.run"), "{text}");
        assert!(
            text.contains("  stage.extract[0]"),
            "indented child:\n{text}"
        );
        assert!(text.contains("debug"), "{text}");
        assert!(text.contains("run-level"), "{text}");
        assert!(text.contains("api fault injected"), "{text}");
    }

    #[test]
    fn export_bytes_metric_counts_output() {
        let registry = crate::obs::Registry::new();
        let tracer = sample_tracer();
        tracer.instrument(&registry);
        let json = tracer.chrome_trace();
        let text = tracer.render_timeline();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("trace.export_bytes"),
            Some((json.len() + text.len()) as u64)
        );
    }
}
