//! The ingest stage: App. A's coordinator/downloader module, windowed.
//!
//! Wraps the stateful [`DownloadModule`] plus its resumable
//! [`DownloadCursor`] and advances them one window at a time. Output
//! records are the thumbnail tasks the module pushes onto the KV list
//! `queue:thumbs` (and the blobs it puts in the `thumbs` bucket) — the
//! store-mediated hand-off the extract stage drains.

use super::{Stage, StageCx};
use crate::download::{DownloadCursor, DownloadModule, DownloadStats};
use tero_types::SimTime;

/// The ingest stage. Owns the only mutable download state in the engine;
/// the cursor is what the engine persists at each window commit.
pub struct IngestStage {
    /// The App. A download module (coordinator + downloader pool).
    pub download: DownloadModule,
    /// Resumable event-loop state spanning the whole run.
    pub cursor: DownloadCursor,
}

impl IngestStage {
    /// A fresh ingest stage over `download`, covering `[from, horizon]`.
    pub fn new(download: DownloadModule, from: SimTime, horizon: SimTime) -> IngestStage {
        IngestStage {
            download,
            cursor: DownloadCursor::new(from, horizon),
        }
    }

    /// Cumulative download statistics across every window so far.
    pub fn stats(&self) -> &DownloadStats {
        self.cursor.stats()
    }
}

impl Stage for IngestStage {
    type In = SimTime;
    type Out = u64;
    const NAME: &'static str = "ingest";

    /// Advance the download cursor to the window end. Returns the number
    /// of thumbnails enqueued during this window.
    fn run(&mut self, cx: &mut StageCx<'_>, window_end: Self::In) -> Self::Out {
        let (m, _span) = cx.enter(Self::NAME);
        let before = self.cursor.stats().downloaded;
        self.download
            .run_cursor(cx.world, &mut self.cursor, window_end);
        let produced = self.cursor.stats().downloaded - before;
        m.records_out.add(produced);
        produced
    }
}
