use crate::{DataType, IsaError};

/// Physical geometry of one tile register: a number of rows, each holding a
/// fixed number of bytes.
///
/// The RASA paper (following Intel AMX) uses 16 rows of 64 bytes, i.e. 1 KB
/// per register. The geometry determines the maximum logical tile shapes:
/// with BF16 inputs a register holds a 16×32 operand tile and with FP32
/// outputs a 16×16 accumulator tile, which fixes TM = 16, TK = 32, TN = 16.
///
/// ```
/// use rasa_isa::{TileGeometry, DataType};
/// let g = TileGeometry::amx();
/// assert_eq!(g.size_bytes(), 1024);
/// assert_eq!(g.max_cols(DataType::Bf16), 32);
/// assert_eq!(g.max_cols(DataType::Fp32), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGeometry {
    rows: usize,
    row_bytes: usize,
}

impl TileGeometry {
    /// Creates a new geometry.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidGeometry`] if either dimension is zero or
    /// if a row cannot hold at least one FP32 element.
    pub fn new(rows: usize, row_bytes: usize) -> Result<Self, IsaError> {
        if rows == 0 {
            return Err(IsaError::InvalidGeometry {
                reason: "tile register must have at least one row".to_string(),
            });
        }
        if row_bytes < DataType::Fp32.size_bytes() {
            return Err(IsaError::InvalidGeometry {
                reason: format!("row of {row_bytes} bytes cannot hold one fp32 element"),
            });
        }
        Ok(TileGeometry { rows, row_bytes })
    }

    /// The AMX-style geometry used throughout the paper: 16 rows × 64 bytes.
    #[must_use]
    pub fn amx() -> Self {
        TileGeometry {
            rows: 16,
            row_bytes: 64,
        }
    }

    /// Number of rows per register.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes per row.
    #[must_use]
    pub const fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Total register capacity in bytes.
    #[must_use]
    pub const fn size_bytes(&self) -> usize {
        self.rows * self.row_bytes
    }

    /// Maximum number of columns of `dtype` elements a row can hold.
    #[must_use]
    pub const fn max_cols(&self, dtype: DataType) -> usize {
        dtype.elements_per_row(self.row_bytes)
    }

    /// Maximum logical tile shape for elements of `dtype`.
    #[must_use]
    pub fn max_shape(&self, dtype: DataType) -> TileShape {
        TileShape {
            rows: self.rows,
            cols: self.max_cols(dtype),
        }
    }

    /// Validates that `shape` (of `dtype` elements) fits in this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::TileShapeTooLarge`] when it does not fit.
    pub fn check_shape(&self, shape: TileShape, dtype: DataType) -> Result<(), IsaError> {
        let max = self.max_shape(dtype);
        if shape.rows > max.rows || shape.cols > max.cols {
            Err(IsaError::TileShapeTooLarge {
                rows: shape.rows,
                cols: shape.cols,
                max_rows: max.rows,
                max_cols: max.cols,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for TileGeometry {
    fn default() -> Self {
        TileGeometry::amx()
    }
}

/// A logical (rows × cols) tile shape stored in a tile register.
///
/// `TileShape` does not carry a data type; pair it with a [`DataType`] and a
/// [`TileGeometry`] to check that it fits in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TileShape {
    /// Number of rows of the logical tile.
    pub rows: usize,
    /// Number of columns of the logical tile.
    pub cols: usize,
}

impl TileShape {
    /// Creates a shape.
    #[must_use]
    pub const fn new(rows: usize, cols: usize) -> Self {
        TileShape { rows, cols }
    }

    /// Number of elements in the tile.
    #[must_use]
    pub const fn elements(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the tile has no elements.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }
}

impl std::fmt::Display for TileShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amx_geometry_matches_paper() {
        let g = TileGeometry::amx();
        assert_eq!(g.rows(), 16);
        assert_eq!(g.row_bytes(), 64);
        assert_eq!(g.size_bytes(), 1024);
        // TM=16, TK=32 (bf16 operand), TN=16 (fp32 accumulator)
        assert_eq!(g.max_shape(DataType::Bf16), TileShape::new(16, 32));
        assert_eq!(g.max_shape(DataType::Fp32), TileShape::new(16, 16));
    }

    #[test]
    fn zero_geometry_rejected() {
        assert!(TileGeometry::new(0, 64).is_err());
        assert!(TileGeometry::new(16, 2).is_err());
        assert!(TileGeometry::new(16, 4).is_ok());
    }

    #[test]
    fn shape_check() {
        let g = TileGeometry::amx();
        assert!(g
            .check_shape(TileShape::new(16, 32), DataType::Bf16)
            .is_ok());
        assert!(g.check_shape(TileShape::new(8, 8), DataType::Fp32).is_ok());
        let err = g
            .check_shape(TileShape::new(17, 32), DataType::Bf16)
            .unwrap_err();
        assert!(matches!(err, IsaError::TileShapeTooLarge { .. }));
        let err = g
            .check_shape(TileShape::new(16, 17), DataType::Fp32)
            .unwrap_err();
        assert!(matches!(err, IsaError::TileShapeTooLarge { .. }));
    }

    #[test]
    fn tile_shape_helpers() {
        let s = TileShape::new(16, 32);
        assert_eq!(s.elements(), 512);
        assert!(!s.is_empty());
        assert!(TileShape::new(0, 4).is_empty());
        assert_eq!(s.to_string(), "16x32");
    }
}
