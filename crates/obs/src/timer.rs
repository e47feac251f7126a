//! RAII stage timing.

use crate::registry::HistogramHandle;
use std::time::Instant;

/// Times a pipeline stage from construction to drop, recording the elapsed
/// wall-clock microseconds into a histogram.
///
/// When constructed disabled (the registry's timing knob is off — the
/// default) the guard holds no start time and never reads the clock:
/// construction and drop are a branch each.
#[must_use = "a StageTimer records on drop; binding it to _ drops it immediately"]
pub struct StageTimer {
    start: Option<Instant>,
    hist: HistogramHandle,
}

impl StageTimer {
    /// Start a timer; `enabled` decides whether the clock is read at all.
    #[inline]
    pub fn start(enabled: bool, hist: HistogramHandle) -> Self {
        StageTimer {
            start: enabled.then(Instant::now),
            hist,
        }
    }

    /// Stop and record now instead of at scope end.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for StageTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;
    use std::time::Duration;

    #[test]
    fn enabled_timer_records_elapsed_micros() {
        let r = Registry::new();
        r.set_timing(true);
        let h = r.histogram("stage.us");
        {
            let _t = r.stage_timer(&h);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 2_000, "recorded {} µs", h.max());
    }

    #[test]
    fn disabled_timer_is_inert() {
        let r = Registry::new();
        let h = r.histogram("stage.us");
        let t = r.stage_timer(&h);
        t.stop();
        assert_eq!(h.count(), 0);
    }
}
