//! 8-bit luminance frames.
//!
//! A [`Frame`] is a `width × height` grid of `u8` intensities. Every
//! downstream consumer of this crate — cut detection, keyframe selection and
//! the cuboid signature builder in `viderec-signature` — reads frames through
//! the block-average and histogram views defined here, which is exactly the
//! information the paper's representation model uses.

/// Number of bins used by [`Frame::histogram`]. 16 bins over 256 intensity
/// levels is the classic shot-detection resolution: coarse enough to ignore
/// noise, fine enough to see scene changes.
pub const HISTOGRAM_BINS: usize = 16;

/// A single video frame: an 8-bit luminance grid in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a frame from row-major pixel data.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height` or either dimension is zero.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        assert_eq!(data.len(), width * height, "pixel buffer size mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Creates a frame filled with a constant intensity.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Self::from_data(width, height, vec![value; width * height])
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel buffer.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw pixel buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = value;
    }

    /// Mean intensity of the frame.
    pub fn mean_intensity(&self) -> f64 {
        let sum: u64 = self.data.iter().map(|&p| p as u64).sum();
        sum as f64 / self.data.len() as f64
    }

    /// Mean absolute per-pixel difference against another frame of the same
    /// shape. This is the raw signal cut detectors threshold.
    ///
    /// # Panics
    /// Panics if the frames have different dimensions.
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "frame shape mismatch"
        );
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
            .sum();
        sum as f64 / self.data.len() as f64
    }

    /// Normalised intensity histogram with [`HISTOGRAM_BINS`] bins.
    /// Bin counts sum to 1.0.
    pub fn histogram(&self) -> [f64; HISTOGRAM_BINS] {
        let mut bins = [0u64; HISTOGRAM_BINS];
        let div = 256 / HISTOGRAM_BINS;
        for &p in &self.data {
            bins[p as usize / div] += 1;
        }
        let n = self.data.len() as f64;
        let mut out = [0.0; HISTOGRAM_BINS];
        for (o, b) in out.iter_mut().zip(bins) {
            *o = b as f64 / n;
        }
        out
    }

    /// L1 distance between the normalised histograms of two frames; in
    /// `[0, 2]`. This is the cut-detection distance used by
    /// [`crate::shot::CutDetector`].
    pub fn histogram_distance(&self, other: &Frame) -> f64 {
        let (a, b) = (self.histogram(), other.histogram());
        a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// Average intensity of the axis-aligned block with top-left corner
    /// `(bx * bw, by * bh)` and size `bw × bh`, clamped to the frame. Used by
    /// the cuboid signature builder to partition keyframes into equal-size
    /// blocks.
    pub fn block_average(&self, bx: usize, by: usize, bw: usize, bh: usize) -> f64 {
        let x0 = bx * bw;
        let y0 = by * bh;
        assert!(x0 < self.width && y0 < self.height, "block out of bounds");
        let x1 = (x0 + bw).min(self.width);
        let y1 = (y0 + bh).min(self.height);
        let mut sum = 0u64;
        for y in y0..y1 {
            let row = &self.data[y * self.width + x0..y * self.width + x1];
            sum += row.iter().map(|&p| p as u64).sum::<u64>();
        }
        sum as f64 / ((x1 - x0) * (y1 - y0)) as f64
    }

    /// Partitions the frame into a `cols × rows` grid and returns the average
    /// intensity of each cell in row-major order. Cells absorb the remainder
    /// pixels on the right/bottom edges.
    pub fn block_grid(&self, cols: usize, rows: usize) -> Vec<f64> {
        assert!(cols > 0 && rows > 0, "grid dimensions must be non-zero");
        assert!(
            cols <= self.width && rows <= self.height,
            "grid finer than pixel resolution"
        );
        let bw = self.width / cols;
        let bh = self.height / rows;
        let mut out = Vec::with_capacity(cols * rows);
        for by in 0..rows {
            for bx in 0..cols {
                // Edge cells extend to the frame border to cover remainders.
                let x0 = bx * bw;
                let y0 = by * bh;
                let x1 = if bx + 1 == cols { self.width } else { x0 + bw };
                let y1 = if by + 1 == rows { self.height } else { y0 + bh };
                let mut sum = 0u64;
                for y in y0..y1 {
                    let row = &self.data[y * self.width + x0..y * self.width + x1];
                    sum += row.iter().map(|&p| p as u64).sum::<u64>();
                }
                out.push(sum as f64 / ((x1 - x0) * (y1 - y0)) as f64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Frame {
        let data = (0..w * h).map(|i| (i % 256) as u8).collect();
        Frame::from_data(w, h, data)
    }

    #[test]
    fn filled_frame_has_uniform_stats() {
        let f = Frame::filled(8, 8, 100);
        assert_eq!(f.mean_intensity(), 100.0);
        assert_eq!(f.pixel(3, 5), 100);
        let h = f.histogram();
        assert_eq!(h[100 / 16], 1.0);
        assert_eq!(h.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn mean_abs_diff_is_symmetric_and_zero_on_self() {
        let a = gradient(16, 16);
        let b = Frame::filled(16, 16, 0);
        assert_eq!(a.mean_abs_diff(&a), 0.0);
        assert_eq!(a.mean_abs_diff(&b), b.mean_abs_diff(&a));
        assert!(a.mean_abs_diff(&b) > 0.0);
    }

    #[test]
    fn histogram_sums_to_one() {
        let f = gradient(32, 32);
        let sum: f64 = f.histogram().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_distance_bounds() {
        let dark = Frame::filled(8, 8, 0);
        let bright = Frame::filled(8, 8, 255);
        assert_eq!(dark.histogram_distance(&dark), 0.0);
        assert!((dark.histogram_distance(&bright) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn block_average_of_uniform_block() {
        let mut f = Frame::filled(8, 8, 10);
        // Make the top-left 4x4 block brighter.
        for y in 0..4 {
            for x in 0..4 {
                f.set_pixel(x, y, 50);
            }
        }
        assert_eq!(f.block_average(0, 0, 4, 4), 50.0);
        assert_eq!(f.block_average(1, 1, 4, 4), 10.0);
    }

    #[test]
    fn block_grid_covers_remainder_pixels() {
        // 10x10 frame in a 3x3 grid: edge cells absorb the extra pixel.
        let f = gradient(10, 10);
        let g = f.block_grid(3, 3);
        assert_eq!(g.len(), 9);
        // Overall mean must equal the weighted mean of cells; with remainder
        // absorption the cells tile the frame exactly, so just sanity-check
        // every cell is a valid intensity.
        for &v in &g {
            assert!((0.0..=255.0).contains(&v));
        }
    }

    #[test]
    fn block_grid_full_resolution_matches_pixels() {
        let f = gradient(4, 4);
        let g = f.block_grid(4, 4);
        for (i, &v) in g.iter().enumerate() {
            assert_eq!(v, f.data()[i] as f64);
        }
    }

    #[test]
    #[should_panic(expected = "pixel buffer size mismatch")]
    fn from_data_rejects_bad_len() {
        Frame::from_data(4, 4, vec![0; 15]);
    }

    #[test]
    #[should_panic(expected = "frame shape mismatch")]
    fn mean_abs_diff_rejects_shape_mismatch() {
        let a = Frame::filled(4, 4, 0);
        let b = Frame::filled(5, 4, 0);
        a.mean_abs_diff(&b);
    }
}
