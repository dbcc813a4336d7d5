use crate::{GemmShape, Matrix, NumericError};
use std::fmt;

/// The shape of a 2-D convolution layer in the paper's notation (Table I):
/// `N` batch, `C` input channels, `X`/`Y` input spatial dimensions, `K`
/// output channels (filters), `R`/`S` filter spatial dimensions.
///
/// ```
/// use rasa_numeric::ConvShape;
/// // ResNet50-2 from Table I: N=32 K=C=64 X=Y=56 R=S=3 (stride 1, pad 1).
/// let conv = ConvShape::new(32, 64, 56, 56, 64, 3, 3, 1, 1);
/// let gemm = conv.to_gemm();
/// assert_eq!(gemm.m, 32 * 56 * 56);
/// assert_eq!(gemm.k, 64 * 3 * 3);
/// assert_eq!(gemm.n, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub y: usize,
    /// Input width.
    pub x: usize,
    /// Number of filters (output channels).
    pub k: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvShape {
    /// Creates a convolution shape.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub const fn new(
        n: usize,
        c: usize,
        y: usize,
        x: usize,
        k: usize,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        ConvShape {
            n,
            c,
            y,
            x,
            k,
            r,
            s,
            stride,
            pad,
        }
    }

    /// Output height after padding and striding.
    #[must_use]
    pub const fn out_y(&self) -> usize {
        (self.y + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width after padding and striding.
    #[must_use]
    pub const fn out_x(&self) -> usize {
        (self.x + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidConvShape`] if any dimension is zero,
    /// the stride is zero, the filter does not fit in the padded input, or
    /// the padded input or the lowered GEMM overflows `usize`. A valid
    /// shape's [`out_y`](Self::out_y), [`out_x`](Self::out_x) and
    /// [`to_gemm`](Self::to_gemm) never overflow.
    pub fn validate(&self) -> Result<(), NumericError> {
        if self.n == 0
            || self.c == 0
            || self.y == 0
            || self.x == 0
            || self.k == 0
            || self.r == 0
            || self.s == 0
        {
            return Err(NumericError::InvalidConvShape {
                reason: "all dimensions must be non-zero".to_string(),
            });
        }
        if self.stride == 0 {
            return Err(NumericError::InvalidConvShape {
                reason: "stride must be non-zero".to_string(),
            });
        }
        let padded = |extent: usize| self.pad.checked_mul(2)?.checked_add(extent);
        let (Some(padded_y), Some(padded_x)) = (padded(self.y), padded(self.x)) else {
            return Err(NumericError::InvalidConvShape {
                reason: format!("padding {} overflows the padded input", self.pad),
            });
        };
        if padded_y < self.r || padded_x < self.s {
            return Err(NumericError::InvalidConvShape {
                reason: format!(
                    "filter {}x{} larger than padded input {}x{}",
                    self.r, self.s, padded_y, padded_x
                ),
            });
        }
        let out = |padded: usize, filter: usize| (padded - filter) / self.stride + 1;
        let m = self
            .n
            .checked_mul(out(padded_y, self.r))
            .and_then(|m| m.checked_mul(out(padded_x, self.s)));
        let k = self
            .c
            .checked_mul(self.r)
            .and_then(|k| k.checked_mul(self.s));
        if m.is_none() || k.is_none() {
            return Err(NumericError::InvalidConvShape {
                reason: format!("lowered GEMM of {self} overflows usize"),
            });
        }
        Ok(())
    }

    /// The GEMM this convolution lowers to via im2col:
    /// `M = N·outY·outX`, `K = C·R·S`, `N = K(filters)` (§II-A of the paper).
    #[must_use]
    pub const fn to_gemm(&self) -> GemmShape {
        GemmShape {
            m: self.n * self.out_y() * self.out_x(),
            k: self.c * self.r * self.s,
            n: self.k,
        }
    }

    /// Number of multiply-accumulates in the direct convolution (equals the
    /// MACs of the lowered GEMM).
    #[must_use]
    pub const fn macs(&self) -> usize {
        self.to_gemm().macs()
    }
}

impl fmt::Display for ConvShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={} C={} Y={} X={} K={} R={} S={} stride={} pad={}",
            self.n, self.c, self.y, self.x, self.k, self.r, self.s, self.stride, self.pad
        )
    }
}

/// Lowers convolution input activations (NCHW layout, one matrix row per
/// batch image, flattened C·Y·X per row) into the im2col operand matrix of
/// shape `(N·outY·outX) × (C·R·S)`.
///
/// The weight matrix for the lowered GEMM is the filter tensor reshaped to
/// `(C·R·S) × K`; multiplying the two reproduces the convolution exactly.
///
/// # Errors
///
/// Returns [`NumericError::InvalidConvShape`] for inconsistent shapes and
/// [`NumericError::DimensionMismatch`] when `input` does not have `N` rows
/// of `C·Y·X` columns.
pub fn im2col(input: &Matrix<f32>, shape: &ConvShape) -> Result<Matrix<f32>, NumericError> {
    shape.validate()?;
    if input.rows() != shape.n || input.cols() != shape.c * shape.y * shape.x {
        return Err(NumericError::DimensionMismatch {
            operation: "im2col",
            detail: format!(
                "expected {}x{} activations, got {}x{}",
                shape.n,
                shape.c * shape.y * shape.x,
                input.rows(),
                input.cols()
            ),
        });
    }
    let out_y = shape.out_y();
    let out_x = shape.out_x();
    let m = shape.n * out_y * out_x;
    let k = shape.c * shape.r * shape.s;
    let mut out = Matrix::zeros(m, k);
    for n in 0..shape.n {
        for oy in 0..out_y {
            for ox in 0..out_x {
                let row = (n * out_y + oy) * out_x + ox;
                for c in 0..shape.c {
                    for r in 0..shape.r {
                        for s in 0..shape.s {
                            let iy = (oy * shape.stride + r) as isize - shape.pad as isize;
                            let ix = (ox * shape.stride + s) as isize - shape.pad as isize;
                            let col = (c * shape.r + r) * shape.s + s;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.y
                                && (ix as usize) < shape.x
                            {
                                let idx = (c * shape.y + iy as usize) * shape.x + ix as usize;
                                out[(row, col)] = input[(n, idx)];
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Lowers a full convolution (activations + filters) to its GEMM operands:
/// returns `(a, b)` such that `a × b` is the convolution output with one row
/// per output pixel and one column per filter.
///
/// `filters` must have `K` rows of `C·R·S` columns (one filter per row).
///
/// # Errors
///
/// Propagates the validation errors of [`im2col`] and checks the filter
/// matrix shape.
pub fn lower_conv_to_gemm(
    input: &Matrix<f32>,
    filters: &Matrix<f32>,
    shape: &ConvShape,
) -> Result<(Matrix<f32>, Matrix<f32>), NumericError> {
    let a = im2col(input, shape)?;
    if filters.rows() != shape.k || filters.cols() != shape.c * shape.r * shape.s {
        return Err(NumericError::DimensionMismatch {
            operation: "lower_conv_to_gemm",
            detail: format!(
                "expected {}x{} filters, got {}x{}",
                shape.k,
                shape.c * shape.r * shape.s,
                filters.rows(),
                filters.cols()
            ),
        });
    }
    Ok((a, filters.transpose()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_f32;

    /// Direct (naive) convolution used as the golden model for im2col.
    fn direct_conv(input: &Matrix<f32>, filters: &Matrix<f32>, shape: &ConvShape) -> Matrix<f32> {
        let out_y = shape.out_y();
        let out_x = shape.out_x();
        let mut out = Matrix::zeros(shape.n * out_y * out_x, shape.k);
        for n in 0..shape.n {
            for oy in 0..out_y {
                for ox in 0..out_x {
                    let row = (n * out_y + oy) * out_x + ox;
                    for kf in 0..shape.k {
                        let mut acc = 0.0;
                        for c in 0..shape.c {
                            for r in 0..shape.r {
                                for s in 0..shape.s {
                                    let iy = (oy * shape.stride + r) as isize - shape.pad as isize;
                                    let ix = (ox * shape.stride + s) as isize - shape.pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < shape.y
                                        && (ix as usize) < shape.x
                                    {
                                        let in_idx =
                                            (c * shape.y + iy as usize) * shape.x + ix as usize;
                                        let f_idx = (c * shape.r + r) * shape.s + s;
                                        acc += input[(n, in_idx)] * filters[(kf, f_idx)];
                                    }
                                }
                            }
                        }
                        out[(row, kf)] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn table1_resnet_shapes_lower_correctly() {
        // ResNet50-1: 1x1 conv, no padding assumed.
        let c1 = ConvShape::new(32, 64, 56, 56, 64, 1, 1, 1, 0);
        assert_eq!(c1.to_gemm(), GemmShape::new(32 * 56 * 56, 64, 64));
        // ResNet50-2: 3x3 conv with pad 1 keeps the spatial size.
        let c2 = ConvShape::new(32, 64, 56, 56, 64, 3, 3, 1, 1);
        assert_eq!(c2.out_y(), 56);
        assert_eq!(c2.to_gemm(), GemmShape::new(32 * 56 * 56, 64 * 9, 64));
        // ResNet50-3: 1x1 conv on 14x14 with 1024 input channels, 512 filters.
        let c3 = ConvShape::new(32, 1024, 14, 14, 512, 1, 1, 1, 0);
        assert_eq!(c3.to_gemm(), GemmShape::new(32 * 14 * 14, 1024, 512));
    }

    #[test]
    fn output_dims_with_stride_and_pad() {
        let c = ConvShape::new(1, 3, 8, 8, 4, 3, 3, 2, 1);
        assert_eq!(c.out_y(), 4);
        assert_eq!(c.out_x(), 4);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(ConvShape::new(0, 3, 8, 8, 4, 3, 3, 1, 1)
            .validate()
            .is_err());
        assert!(ConvShape::new(1, 3, 8, 8, 4, 3, 3, 0, 1)
            .validate()
            .is_err());
        assert!(ConvShape::new(1, 3, 2, 2, 4, 5, 5, 1, 0)
            .validate()
            .is_err());
        assert!(ConvShape::new(1, 3, 8, 8, 4, 3, 3, 1, 1).validate().is_ok());
    }

    #[test]
    fn validation_rejects_overflowing_shapes() {
        // Unchecked, each one wraps (release) or panics (debug) while
        // lowering: the padded input, M = N·outY·outX and K = C·R·S.
        let big = 1usize << 63;
        for (shape, what) in [
            (ConvShape::new(1, 3, 8, 8, 4, 3, 3, 1, big), "padding"),
            (ConvShape::new(big, 3, 8, 8, 4, 3, 3, 1, 1), "lowered GEMM"),
            (ConvShape::new(1, big, 8, 8, 4, 3, 3, 1, 1), "lowered GEMM"),
            (ConvShape::new(1, 3, big, 8, 4, 3, 3, 1, 1), "lowered GEMM"),
        ] {
            let err = shape.validate().unwrap_err();
            assert!(err.to_string().contains(what), "{shape}: {err}");
        }
        // The largest padding that fits still validates and lowers.
        let quarter = usize::MAX / 4;
        let wide = ConvShape::new(1, 1, 1, 1, 1, 1, 1, quarter, quarter);
        assert!(wide.validate().is_ok());
        assert_eq!(wide.to_gemm(), GemmShape::new(9, 1, 1));
    }

    #[test]
    fn im2col_gemm_equals_direct_convolution() {
        let shape = ConvShape::new(2, 3, 6, 5, 4, 3, 3, 1, 1);
        let input = Matrix::from_fn(shape.n, shape.c * shape.y * shape.x, |i, j| {
            ((i * 37 + j * 11) % 13) as f32 - 6.0
        });
        let filters = Matrix::from_fn(shape.k, shape.c * shape.r * shape.s, |i, j| {
            ((i * 17 + j * 7) % 9) as f32 - 4.0
        });
        let golden = direct_conv(&input, &filters, &shape);

        let (a, b) = lower_conv_to_gemm(&input, &filters, &shape).unwrap();
        let gemm = shape.to_gemm();
        assert_eq!(a.rows(), gemm.m);
        assert_eq!(a.cols(), gemm.k);
        assert_eq!(b.rows(), gemm.k);
        assert_eq!(b.cols(), gemm.n);
        let mut c = Matrix::zeros(gemm.m, gemm.n);
        gemm_f32(&a, &b, &mut c);
        assert_eq!(crate::max_abs_diff(&golden, &c), 0.0);
    }

    #[test]
    fn im2col_strided_matches_direct() {
        let shape = ConvShape::new(1, 2, 7, 7, 3, 3, 3, 2, 0);
        let input = Matrix::from_fn(1, 2 * 7 * 7, |_, j| (j % 5) as f32);
        let filters = Matrix::from_fn(3, 2 * 9, |i, j| ((i + j) % 3) as f32);
        let golden = direct_conv(&input, &filters, &shape);
        let (a, b) = lower_conv_to_gemm(&input, &filters, &shape).unwrap();
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_f32(&a, &b, &mut c);
        assert_eq!(crate::max_abs_diff(&golden, &c), 0.0);
    }

    #[test]
    fn im2col_rejects_wrong_input_shape() {
        let shape = ConvShape::new(2, 3, 4, 4, 2, 3, 3, 1, 1);
        let input = Matrix::<f32>::zeros(2, 10);
        assert!(im2col(&input, &shape).is_err());
    }

    #[test]
    fn lower_conv_rejects_wrong_filter_shape() {
        let shape = ConvShape::new(1, 1, 4, 4, 2, 3, 3, 1, 1);
        let input = Matrix::<f32>::zeros(1, 16);
        let filters = Matrix::<f32>::zeros(2, 8);
        assert!(lower_conv_to_gemm(&input, &filters, &shape).is_err());
    }

    #[test]
    fn display_contains_all_dims() {
        let c = ConvShape::new(32, 64, 56, 56, 64, 3, 3, 1, 1);
        let s = c.to_string();
        assert!(s.contains("N=32"));
        assert!(s.contains("R=3"));
    }
}
