//! Video documents: identified frame sequences.

use crate::frame::Frame;

/// Opaque identifier of a video inside a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VideoId(pub u64);

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A video document: an identified frame sequence at a fixed frame rate.
///
/// The paper keeps clips no longer than 10 minutes (§5.1, following Wu et
/// al.); [`Video::duration_secs`] lets the evaluation harness enforce the
/// same cap on synthetic data.
#[derive(Debug, Clone)]
pub struct Video {
    id: VideoId,
    fps: f64,
    frames: Vec<Frame>,
}

impl Video {
    /// Creates a video from frames.
    ///
    /// # Panics
    /// Panics if `frames` is empty, `fps` is not positive, or the frames do
    /// not all share one shape.
    pub fn new(id: VideoId, fps: f64, frames: Vec<Frame>) -> Self {
        assert!(
            !frames.is_empty(),
            "a video must contain at least one frame"
        );
        assert!(fps > 0.0, "fps must be positive");
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames must share one shape"
        );
        Self { id, fps, frames }
    }

    /// The video's identifier.
    #[inline]
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// Frames per second.
    #[inline]
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The frame sequence.
    #[inline]
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the video has no frames. Always false by construction; present
    /// for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }

    /// Replaces the frame sequence, preserving id and fps.
    ///
    /// # Panics
    /// Same validation as [`Video::new`].
    pub fn with_frames(&self, frames: Vec<Frame>) -> Self {
        Self::new(self.id, self.fps, frames)
    }

    /// Re-identifies the video (used when an edited copy becomes a new
    /// community upload).
    pub fn with_id(mut self, id: VideoId) -> Self {
        self.id = id;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(id: u64, n: usize) -> Video {
        Video::new(VideoId(id), 10.0, vec![Frame::filled(4, 4, 7); n])
    }

    #[test]
    fn duration_is_frames_over_fps() {
        let v = tiny(1, 25);
        assert!((v.duration_secs() - 2.5).abs() < 1e-12);
        assert_eq!(v.len(), 25);
        assert!(!v.is_empty());
    }

    #[test]
    fn with_frames_preserves_identity() {
        let v = tiny(3, 5);
        let w = v.with_frames(vec![Frame::filled(4, 4, 0); 2]);
        assert_eq!(w.id(), VideoId(3));
        assert_eq!(w.fps(), 10.0);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn with_id_reassigns() {
        let v = tiny(1, 2).with_id(VideoId(9));
        assert_eq!(v.id(), VideoId(9));
        assert_eq!(v.id().to_string(), "v9");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_video_rejected() {
        Video::new(VideoId(0), 10.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn mixed_shapes_rejected() {
        Video::new(
            VideoId(0),
            10.0,
            vec![Frame::filled(4, 4, 0), Frame::filled(5, 4, 0)],
        );
    }
}
