use std::fmt;
use std::ops::Range;

/// Tuple size used for cache-budget accounting, matching the paper's setup
/// (§7: "each of 20 bytes"). The in-memory representation differs, but
/// budgets and sizes are expressed in these accounting bytes so that cache
/// sizes like "10 MB" mean the same thing they meant in the paper.
pub const PAPER_TUPLE_BYTES: usize = 20;

/// The largest coordinate a chunk holds at the narrow (`u16`) width.
pub const NARROW_MAX: u32 = u16::MAX as u32;

/// A width a [`ChunkData`] holds its coordinates at: `u16` while every
/// coordinate fits, `u32` once one does not. Code over a chunk's cells is
/// written once, generic over this trait, and instantiated per width by a
/// `match` on [`ChunkData::stored_coords`].
pub trait Coord: Copy + Ord + Into<u32> + 'static {
    /// `c` at this width; the caller knows it fits.
    fn from_u32(c: u32) -> Self;

    /// The coordinate as an index into a per-value table.
    #[inline(always)]
    fn index(self) -> usize {
        let c: u32 = self.into();
        c as usize
    }
}

impl Coord for u16 {
    #[inline(always)]
    fn from_u32(c: u32) -> Self {
        debug_assert!(c <= NARROW_MAX, "coordinate {c} does not fit u16");
        c as u16
    }
}

impl Coord for u32 {
    #[inline(always)]
    fn from_u32(c: u32) -> Self {
        c
    }
}

/// The type a [`Buf`] widens to from `u16` once an entry does not fit:
/// `u32` for coordinates, `f64` for measure values, which `u16` holds while
/// each is a whole number from 0 to 65,535 (`+0.0`, not `-0.0`). Widening
/// is exact.
pub trait Wide: Copy + PartialEq + From<u16> + fmt::Debug + 'static {
    /// This number at `u16`, if it survives the round trip bit for bit.
    fn narrow(self) -> Option<u16>;
}

impl Wide for u32 {
    #[inline(always)]
    fn narrow(self) -> Option<u16> {
        u16::try_from(self).ok()
    }
}

impl Wide for f64 {
    /// `None` for a fraction, a negative number, `-0.0`, a NaN or a number
    /// past 65,535, each of which the saturating cast changes.
    #[inline(always)]
    fn narrow(self) -> Option<u16> {
        let n = self as u16;
        (f64::from(n).to_bits() == self.to_bits()).then_some(n)
    }
}

/// Entries as a [`Buf`] holds them, tagged with their width: a chunk's
/// stored coordinates ([`Coords`]) or its values ([`Values`]). Two views
/// compare by value, whatever their widths.
#[derive(Clone, Copy)]
pub enum Held<'a, W> {
    /// Every entry fits 16 bits.
    U16(&'a [u16]),
    /// Some entry may not.
    Wide(&'a [W]),
}

/// Row-major coordinates at their width, `u16` or `u32`: a chunk's stored
/// columns ([`ChunkData::stored_coords`]).
pub type Coords<'a> = Held<'a, u32>;

/// Measure values at their width, `u16` or `f64`: all of a chunk's cells
/// ([`ChunkData::raw_values`]).
pub type Values<'a> = Held<'a, f64>;

impl<'a, W: Wide> Held<'a, W> {
    /// Number of entries.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            Held::U16(v) => v.len(),
            Held::Wide(v) => v.len(),
        }
    }

    /// Whether the view holds no entry.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Entry `i`, exactly.
    #[inline]
    pub fn get(self, i: usize) -> W {
        match self {
            Held::U16(v) => W::from(v[i]),
            Held::Wide(v) => v[i],
        }
    }

    /// The entries in order, each at `W`.
    pub fn iter(self) -> impl ExactSizeIterator<Item = W> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The entries as a vector at `W`.
    pub fn to_vec(self) -> Vec<W> {
        self.iter().collect()
    }

    /// Whether every entry fits `u16`: free for a view at `u16`, one fold
    /// with no early exit, which vectorises, for one at `W`.
    pub fn fits_u16(self) -> bool {
        match self {
            Held::U16(_) => true,
            Held::Wide(v) => v.iter().fold(true, |all, &w| all & w.narrow().is_some()),
        }
    }

    /// Entries `range` of the view.
    #[inline]
    fn slice(self, range: Range<usize>) -> Self {
        match self {
            Held::U16(v) => Held::U16(&v[range]),
            Held::Wide(v) => Held::Wide(&v[range]),
        }
    }
}

impl<W: Wide> PartialEq for Held<'_, W> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Held::U16(a), Held::U16(b)) => a == b,
            (Held::Wide(a), Held::Wide(b)) => a == b,
            (a, b) => a.len() == b.len() && a.iter().eq(b.iter()),
        }
    }
}

impl<W: Wide> fmt::Debug for Held<'_, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One cell's coordinates, one per dimension: given as a `u32` slice,
/// array or vector, or read off a chunk ([`ChunkData::coords_of`],
/// [`ChunkData::iter`]) with its constant columns from the chunk's header.
/// Two compare by their values.
#[derive(Clone, Copy)]
pub enum CellCoords<'a> {
    /// Every coordinate, in dimension order.
    Given(&'a [u32]),
    /// Cell `i` of a chunk.
    Of(&'a ChunkData, usize),
}

impl<'a> CellCoords<'a> {
    #[inline]
    fn len(self) -> usize {
        match self {
            CellCoords::Given(c) => c.len(),
            CellCoords::Of(chunk, _) => chunk.n_dims(),
        }
    }

    /// Coordinate `d`.
    #[inline]
    pub fn get(self, d: usize) -> u32 {
        match self {
            CellCoords::Given(c) => c[d],
            CellCoords::Of(chunk, i) => chunk.coord(i, d),
        }
    }

    /// The coordinates in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> + 'a {
        (0..self.len()).map(move |d| self.get(d))
    }

    /// The coordinates as a vector.
    pub fn to_vec(self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl PartialEq for CellCoords<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for CellCoords<'_> {}

impl<T: AsRef<[u32]> + ?Sized> PartialEq<T> for CellCoords<'_> {
    fn eq(&self, other: &T) -> bool {
        self.iter().eq(other.as_ref().iter().copied())
    }
}

impl fmt::Debug for CellCoords<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T: AsRef<[u32]> + ?Sized> From<&'a T> for CellCoords<'a> {
    fn from(coords: &'a T) -> Self {
        CellCoords::Given(coords.as_ref())
    }
}

/// Entries at their width, as a [`ChunkData`] holds its coordinates
/// (`Buf<u32>`) and its values ([`ValueVec`]): `u16` from the start
/// ([`Buf::with_capacity`], [`Default`], [`FromIterator`]), widened in
/// place to `W`, capacity kept, by the first entry `u16` does not hold. A
/// `Vec<u16>` or `Vec<W>` converts at its own width, as given.
#[derive(Debug, Clone)]
pub enum Buf<W> {
    /// Every entry fits 16 bits.
    U16(Vec<u16>),
    /// Some entry may not.
    Wide(Vec<W>),
}

/// Measure values at their width. A producer that fills values before it
/// has the coordinates builds one and hands it to [`ChunkData::from_raw`].
pub type ValueVec = Buf<f64>;

impl<W> Default for Buf<W> {
    fn default() -> Self {
        Buf::U16(Vec::new())
    }
}

impl<W: Wide> From<Vec<u16>> for Buf<W> {
    fn from(entries: Vec<u16>) -> Self {
        Buf::U16(entries)
    }
}

impl<W: Wide> From<Vec<W>> for Buf<W> {
    fn from(entries: Vec<W>) -> Self {
        Buf::Wide(entries)
    }
}

impl<W: Wide> Buf<W> {
    /// An empty narrow buffer with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Buf::U16(Vec::with_capacity(n))
    }

    /// The entries at their width.
    #[inline]
    fn view(&self) -> Held<'_, W> {
        match self {
            Buf::U16(v) => Held::U16(v),
            Buf::Wide(v) => Held::Wide(v),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.view().len()
    }

    /// Appends `w`, widening the buffer first if it does not fit.
    #[inline]
    pub fn push(&mut self, w: W) {
        match self {
            Buf::U16(v) => match w.narrow() {
                Some(n) => v.push(n),
                None => self.widen_and_push(w),
            },
            Buf::Wide(v) => v.push(w),
        }
    }

    /// [`Buf::push`] of an entry `u16` does not hold.
    #[cold]
    #[inline(never)]
    fn widen_and_push(&mut self, w: W) {
        self.widen();
        self.push(w);
    }

    /// Sets entry `i` to `w`, widening the buffer first if it does not fit.
    fn set(&mut self, i: usize, w: W) {
        match self {
            Buf::U16(v) => match w.narrow() {
                Some(n) => v[i] = n,
                None => {
                    self.widen();
                    self.set(i, w);
                }
            },
            Buf::Wide(v) => v[i] = w,
        }
    }

    /// Appends `from`, widening the buffer first if an entry does not fit.
    /// Copies by a plain loop: `extend_from_slice` of a runtime-length
    /// slice is a libc `memmove` call, which costs more than the few bytes
    /// of one cell.
    #[inline]
    fn append(&mut self, from: Held<'_, W>) {
        if matches!(self, Buf::U16(_)) && !from.fits_u16() {
            self.widen();
        }
        match (self, from) {
            (Buf::U16(to), Held::U16(v)) => to.extend(v.iter().copied()),
            (Buf::U16(to), Held::Wide(v)) => to.extend(v.iter().map(|w| w.narrow().unwrap_or(0))),
            (Buf::Wide(to), Held::U16(v)) => to.extend(v.iter().map(|&n| W::from(n))),
            (Buf::Wide(to), Held::Wide(v)) => to.extend(v.iter().copied()),
        }
    }

    /// Moves the entries to `W`, keeping the capacity (a no-op when they
    /// are already there). Out of line: a buffer widens once at most, and
    /// [`Buf::push`] stays small enough to inline into every producer's
    /// loop.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        if let Buf::U16(narrow) = self {
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(|&n| W::from(n)));
            *self = Buf::Wide(wide);
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Buf::U16(v) => v.capacity(),
            Buf::Wide(v) => v.capacity(),
        }
    }

    /// Bytes of heap the buffer holds.
    fn heap_bytes(&self) -> usize {
        let entry = match self {
            Buf::U16(_) => 2,
            Buf::Wide(_) => std::mem::size_of::<W>(),
        };
        self.capacity() * entry
    }

    fn reserve_exact(&mut self, n: usize) {
        match self {
            Buf::U16(v) => v.reserve_exact(n),
            Buf::Wide(v) => v.reserve_exact(n),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Buf::U16(v) => v.shrink_to_fit(),
            Buf::Wide(v) => v.shrink_to_fit(),
        }
    }
}

impl<W: Wide> Extend<W> for Buf<W> {
    fn extend<I: IntoIterator<Item = W>>(&mut self, entries: I) {
        entries.into_iter().for_each(|w| self.push(w));
    }
}

impl<W: Wide> FromIterator<W> for Buf<W> {
    fn from_iter<I: IntoIterator<Item = W>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut out = Buf::with_capacity(entries.size_hint().0);
        out.extend(entries);
        out
    }
}

/// A cell's value borrowed for writing ([`ChunkData::value_of_mut`]). It
/// reads and writes as an `f64` and stores back when dropped, widening the
/// chunk's values first if the one written does not fit their width.
pub struct ValueMut<'a> {
    values: &'a mut ValueVec,
    i: usize,
    value: f64,
}

impl std::ops::Deref for ValueMut<'_> {
    type Target = f64;

    fn deref(&self) -> &f64 {
        &self.value
    }
}

impl std::ops::DerefMut for ValueMut<'_> {
    fn deref_mut(&mut self) -> &mut f64 {
        &mut self.value
    }
}

impl Drop for ValueMut<'_> {
    fn drop(&mut self) {
        self.values.set(self.i, self.value);
    }
}

/// How a [`ChunkData`] holds one dimension's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// In the stored coordinates, at this position of each cell's.
    Stored(u32),
    /// Once, in the chunk's header: every cell holds this coordinate.
    Constant(u32),
}

impl Column {
    /// The coordinate every cell holds, for a constant column.
    #[inline]
    pub fn constant(self) -> Option<u32> {
        match self {
            Column::Constant(c) => Some(c),
            Column::Stored(_) => None,
        }
    }
}

/// The header over `constants` (per dimension, the coordinate held once,
/// or `None` for a stored column) and its stride.
fn header(constants: impl IntoIterator<Item = Option<u32>>) -> (std::sync::Arc<[Column]>, usize) {
    let mut stride = 0;
    let header = constants.into_iter().map(|c| match c {
        Some(c) => Column::Constant(c),
        None => {
            stride += 1;
            Column::Stored(stride - 1)
        }
    });
    (header.collect(), stride as usize)
}

/// The dimensions `header` stores, in order.
fn stored_dims(header: &[Column]) -> impl Iterator<Item = usize> + '_ {
    (0..header.len()).filter(|&d| header[d].constant().is_none())
}

/// Appends the `n` cells of `from` (row-major, `stride` coordinates a
/// cell) to `out`, row-major at the columns `take` names (`take.len()` a
/// cell): each column from the position in a cell its [`Column::Stored`]
/// names, or its [`Column::Constant`]. It is how cells move between two
/// chunks' layouts, so that each cell's adjacent stored columns move
/// together: one strided pass a run of up to four, each cell's run a
/// fixed-size copy. That runs about twice as fast as a pass a column on
/// APB-1's layouts, and three to six times as fast as a cell at a time
/// (whose inner loop is a `match` a coordinate).
fn gather<S: Coord, C: Coord>(
    from: &[S],
    stride: usize,
    n: usize,
    take: &[Column],
    out: &mut Vec<C>,
) {
    let start = out.len();
    out.resize(start + n * take.len(), C::from_u32(0));
    let (to, width) = (&mut out[start..], take.len());
    let mut d = 0;
    while d < width && !to.is_empty() {
        d += match take[d] {
            Column::Constant(c) => {
                let c = C::from_u32(c);
                to[d..].iter_mut().step_by(width).for_each(|x| *x = c);
                1
            }
            Column::Stored(j) => {
                let run = take[d..].iter().zip(j..);
                let (from, at) = (from.chunks_exact(stride), j as usize);
                let to = to.chunks_exact_mut(width);
                match run
                    .take_while(|&(&col, k)| col == Column::Stored(k))
                    .count()
                {
                    1 => run_pass::<_, _, 1>(from, at, to, d),
                    2 | 3 => run_pass::<_, _, 2>(from, at, to, d),
                    _ => run_pass::<_, _, 4>(from, at, to, d),
                }
            }
        };
    }
}

/// One pass of [`gather`]: `K` adjacent columns of each cell of `from`,
/// from position `at`, to position `d` of the same cell of `to`. Returns
/// `K`.
fn run_pass<'a, S: Coord, C: Coord, const K: usize>(
    from: impl Iterator<Item = &'a [S]>,
    at: usize,
    to: impl Iterator<Item = &'a mut [C]>,
    d: usize,
) -> usize {
    for (cell, row) in from.zip(to) {
        let src: &[S; K] = cell[at..at + K].try_into().expect("K columns");
        let dst: &mut [C; K] = (&mut row[d..d + K]).try_into().expect("K columns");
        for k in 0..K {
            dst[k] = C::from_u32(src[k].into());
        }
    }
    K
}

/// The cells of a chunk (or of a query result spanning several chunks), as
/// a structure of arrays: `n_dims` value coordinates per cell plus one
/// measure value.
///
/// Coordinates are value ids *at the chunk's group-by level* — a cell of a
/// chunk at level `(0, 2)` stores a level-0 id for dimension 0 and a level-2
/// id for dimension 1. A dimension every cell agrees on is held once, in
/// the header ([`Column::Constant`]); the others are stored row-major,
/// `stride` a cell, at `u16` while they fit it ([`Buf`]). A
/// column stays constant until the first pushed or appended cell that
/// differs along it, and a stored coordinate `u16` until the first that
/// passes [`NARROW_MAX`]; each switch happens in place, keeping the
/// capacity in cells. An empty chunk takes the layout of the first chunk
/// appended to it. Values likewise are held at `u16` while every value
/// round-trips through it exactly ([`ValueVec`]). On APB-1 every
/// coordinate and nearly every value fits 16 bits, and Scenario is constant
/// in every base chunk, so a base cell is `2·4 + 2` bytes of heap. The
/// layout and widths are invisible to `==`, which compares cells by value,
/// and to [`ChunkData::accounting_bytes`].
#[derive(Debug, Clone, Default)]
pub struct ChunkData {
    /// Where each dimension's coordinates are held, shared by clones.
    header: std::sync::Arc<[Column]>,
    /// The number of stored columns.
    stride: usize,
    coords: Buf<u32>,
    values: ValueVec,
}

impl PartialEq for ChunkData {
    fn eq(&self, other: &Self) -> bool {
        self.n_dims() == other.n_dims()
            && self.raw_values() == other.raw_values()
            && if self.header == other.header {
                self.stored_coords() == other.stored_coords()
            } else {
                let cells = 0..self.len();
                (0..self.n_dims())
                    .all(|d| cells.clone().all(|i| self.coord(i, d) == other.coord(i, d)))
            }
    }
}

impl ChunkData {
    /// Creates an empty container for cells with `n_dims` coordinates.
    pub fn new(n_dims: usize) -> Self {
        Self::with_capacity(n_dims, 0)
    }

    /// Creates an empty container with room for `cells` cells; the
    /// coordinates get theirs once the layout is known.
    pub fn with_capacity(n_dims: usize, cells: usize) -> Self {
        let (header, stride) = header((0..n_dims).map(|_| Some(0)));
        Self {
            header,
            stride,
            coords: Buf::default(),
            values: ValueVec::with_capacity(cells),
        }
    }

    /// Builds a container from parallel raw arrays — every coordinate of
    /// every cell, row-major — holding `values` at their own width and
    /// each column all cells agree on once. `coords` is held as given when
    /// no column is dropped; otherwise the stored columns are gathered
    /// into a block at `u16` if they all fit.
    ///
    /// `coords.len()` must equal `values.len() * n_dims`.
    pub fn from_raw(
        n_dims: usize,
        coords: impl Into<Buf<u32>>,
        values: impl Into<ValueVec>,
    ) -> Self {
        let mut chunk = Self::from_stored(&vec![None; n_dims], coords, values);
        // A column that varies mostly does so within its first few cells.
        let (cells, n) = (chunk.stored_coords(), chunk.len());
        let constants: Vec<Option<u32>> = (0..n_dims)
            .map(|d| {
                let first = if n == 0 { 0 } else { cells.get(d) };
                (0..n)
                    .all(|i| cells.get(i * n_dims + d) == first)
                    .then_some(first)
            })
            .collect();
        if constants.iter().any(Option::is_some) {
            chunk.relayout(constants);
        }
        chunk
    }

    /// Builds a container laid out as `constants` says: per dimension, the
    /// coordinate every cell holds, or `None` for a column `coords` holds
    /// (row-major, at its own width; `values.len()` times the `None`s).
    pub fn from_stored(
        constants: &[Option<u32>],
        coords: impl Into<Buf<u32>>,
        values: impl Into<ValueVec>,
    ) -> Self {
        let (header, stride) = header(constants.iter().copied());
        let (coords, values) = (coords.into(), values.into());
        assert_eq!(coords.len(), values.len() * stride);
        ChunkData {
            header,
            stride,
            coords,
            values,
        }
    }

    /// Number of coordinates per cell.
    #[inline]
    pub fn n_dims(&self) -> usize {
        self.header.len()
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the container holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where each dimension's coordinates are held.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.header
    }

    /// The number of stored columns: coordinates a cell holds in
    /// [`ChunkData::stored_coords`].
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Appends a cell — coordinates as a `u32` slice, array or vector, or
    /// read off another chunk — storing each column it differs from the
    /// chunk's constant along and widening the container first if a stored
    /// coordinate or the value does not fit its width.
    #[inline]
    pub fn push<'c>(&mut self, coords: impl Into<CellCoords<'c>>, value: f64) {
        let cell = coords.into();
        debug_assert_eq!(cell.len(), self.n_dims());
        self.hold(|d| Some(cell.get(d)));
        self.coords
            .extend(stored_dims(&self.header).map(|d| cell.get(d)));
        self.values.push(value);
    }

    /// Lays this chunk out to take cells holding dimension `d` once at
    /// `incoming(d)` (or storing it, `None`): empty, it takes their layout;
    /// else it stores each column it holds at another value than they do.
    #[inline]
    fn hold(&mut self, incoming: impl Fn(usize) -> Option<u32>) {
        let kept = |d: usize| match self.header[d].constant() {
            _ if self.is_empty() => incoming(d),
            held => held.filter(|&c| incoming(d) == Some(c)),
        };
        if (0..self.n_dims()).any(|d| kept(d) != self.header[d].constant()) {
            let constants = (0..self.n_dims()).map(kept).collect();
            self.relayout(constants);
        }
    }

    /// Moves the cells to the header over `constants` (a column it drops
    /// must be constant), rebuilding the stored coordinates at the new
    /// stride with the capacity in cells kept, at `u16` unless one they
    /// hold does not fit. Out of line: a chunk does this at most once per
    /// dimension after its first cell.
    #[cold]
    #[inline(never)]
    fn relayout(&mut self, constants: Vec<Option<u32>>) {
        let (header, stride) = header(constants);
        let take = self.take(&header);
        let empty = Buf::with_capacity(self.values.capacity() * stride);
        let old = std::mem::replace(&mut self.coords, empty);
        self.extend_gathered(old.view(), self.stride, self.len(), &take);
        (self.header, self.stride) = (header, stride);
    }

    /// Per column `header` stores, where `self` holds it: the column `take`
    /// argument of [`gather`] that lays this chunk's cells out as `header`.
    fn take(&self, header: &[Column]) -> Vec<Column> {
        stored_dims(header).map(|d| self.header[d]).collect()
    }

    /// Appends the `n` cells of `from` (row-major, `stride` coordinates a
    /// cell) at the columns `take` names ([`gather`]), widening the
    /// coordinates first if one written does not fit `u16`.
    fn extend_gathered(&mut self, from: Coords<'_>, stride: usize, n: usize, take: &[Column]) {
        let narrow = n == 0
            || take.iter().all(|&col| match (col, from) {
                (Column::Constant(c), _) => c <= NARROW_MAX,
                (Column::Stored(_), Held::U16(_)) => true,
                (Column::Stored(j), Held::Wide(c)) => c
                    .chunks_exact(stride)
                    .all(|cell| cell[j as usize] <= NARROW_MAX),
            });
        if !narrow {
            self.coords.widen();
        }
        match (&mut self.coords, from) {
            (Buf::U16(to), Held::U16(c)) => gather(c, stride, n, take, to),
            (Buf::U16(to), Held::Wide(c)) => gather(c, stride, n, take, to),
            (Buf::Wide(to), Held::U16(c)) => gather(c, stride, n, take, to),
            (Buf::Wide(to), Held::Wide(c)) => gather(c, stride, n, take, to),
        }
    }

    /// Coordinate `d` of cell `i`.
    #[inline]
    fn coord(&self, i: usize, d: usize) -> u32 {
        match self.header[d] {
            Column::Stored(j) => self.stored_coords().get(i * self.stride + j as usize),
            Column::Constant(c) => c,
        }
    }

    /// The coordinates of cell `i`.
    #[inline]
    pub fn coords_of(&self, i: usize) -> CellCoords<'_> {
        assert!(i < self.len(), "cell {i} of {}", self.len());
        CellCoords::Of(self, i)
    }

    /// The measure value of cell `i`.
    #[inline]
    pub fn value_of(&self, i: usize) -> f64 {
        self.raw_values().get(i)
    }

    /// The measure value of cell `i`, for writing: the value is stored
    /// back, at whatever width it needs, when the borrow ends.
    #[inline]
    pub fn value_of_mut(&mut self, i: usize) -> ValueMut<'_> {
        let value = self.value_of(i);
        ValueMut {
            values: &mut self.values,
            i,
            value,
        }
    }

    /// Iterates over `(coords, value)` pairs. A hot loop reads
    /// [`ChunkData::columns`], [`ChunkData::stored_coords`] and
    /// [`ChunkData::raw_values`] instead, once per chunk.
    pub fn iter(&self) -> impl Iterator<Item = (CellCoords<'_>, f64)> + '_ {
        let values = self.raw_values();
        (0..self.len()).map(move |i| (CellCoords::Of(self, i), values.get(i)))
    }

    /// The stored coordinates (`len() * stride()` entries, row-major over
    /// the stored columns in dimension order) at their width.
    #[inline]
    pub fn stored_coords(&self) -> Coords<'_> {
        self.coords.view()
    }

    /// The measure array at its width.
    #[inline]
    pub fn raw_values(&self) -> Values<'_> {
        self.values.view()
    }

    /// Accounting size in bytes (paper convention: 20 bytes per tuple),
    /// whatever the layout and widths.
    #[inline]
    pub fn accounting_bytes(&self) -> usize {
        self.len() * PAPER_TUPLE_BYTES
    }

    /// Actual in-memory payload size in bytes: the stored coordinates and
    /// the values, at the widths held (the header, a word a dimension, is
    /// per chunk and not counted).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.coords.heap_bytes() + self.values.heap_bytes()
    }

    /// Makes room for exactly `cells` more cells at the current layout and
    /// widths, so that appending parts whose total is known costs one
    /// allocation and leaves no slack.
    pub fn reserve_exact(&mut self, cells: usize) {
        self.coords.reserve_exact(cells * self.stride);
        self.values.reserve_exact(cells);
    }

    /// Appends all cells of `other` (same arity required).
    pub fn append(&mut self, other: &ChunkData) {
        self.extend_from(other, 0..other.len());
    }

    /// Appends cells `cells` of `src` (same arity required): one block
    /// copy when the two chunks share a layout. Otherwise this chunk first
    /// stores every column it holds once that `src` stores or holds at
    /// another value — or, empty, takes `src`'s layout — and then takes
    /// each stored column from `src`'s column or constant.
    pub fn extend_from(&mut self, src: &ChunkData, cells: Range<usize>) {
        assert_eq!(self.n_dims(), src.n_dims(), "arity mismatch");
        if cells.is_empty() {
            return;
        }
        self.hold(|d| src.header[d].constant());
        let (n, s) = (cells.len(), src.stride);
        let from = src.stored_coords().slice(cells.start * s..cells.end * s);
        if self.header == src.header {
            self.coords.append(from);
        } else {
            self.extend_gathered(from, s, n, &src.take(&self.header));
        }
        self.values.append(src.raw_values().slice(cells));
    }

    /// This chunk's cells laid out as `like` holds its own — `like`'s
    /// header and coordinate width — so that code can walk the stored
    /// coordinates of both side by side; `None` when they differ along a
    /// column `like` holds once, or a coordinate that `like` stores does
    /// not fit its width.
    pub fn laid_out_as(&self, like: &ChunkData) -> Option<ChunkData> {
        assert_eq!(self.n_dims(), like.n_dims(), "arity mismatch");
        let held = |d: usize| match like.header[d] {
            Column::Constant(_) => like.header[d] == self.header[d],
            Column::Stored(_) => true,
        };
        if !self.is_empty() && !(0..self.n_dims()).all(held) {
            return None;
        }
        let room = self.len() * like.stride;
        let coords = match like.coords {
            Buf::U16(_) => Buf::U16(Vec::with_capacity(room)),
            Buf::Wide(_) => Buf::Wide(Vec::with_capacity(room)),
        };
        let (header, stride) = (like.header.clone(), like.stride);
        let values = self.values.clone();
        let mut out = ChunkData {
            header,
            stride,
            coords,
            values,
        };
        let take = self.take(&like.header);
        out.extend_gathered(self.stored_coords(), self.stride, self.len(), &take);
        let same_width =
            std::mem::discriminant(&out.coords) == std::mem::discriminant(&like.coords);
        same_width.then_some(out)
    }

    /// Sorts cells lexicographically by coordinates (for deterministic
    /// comparison in tests and stable output), in place: the order is
    /// sorted as a `u32` index over the stored columns — a constant one
    /// orders nothing — then applied cycle by cycle inside the cell arrays,
    /// so the only extra memory is the index (4 bytes a cell).
    pub fn sort_by_coords(&mut self) {
        let d = self.stride;
        match (&mut self.coords, &mut self.values) {
            _ if d == 0 => {}
            (Buf::U16(c), Buf::U16(v)) => sort_cells(c, v, d),
            (Buf::U16(c), Buf::Wide(v)) => sort_cells(c, v, d),
            (Buf::Wide(c), Buf::U16(v)) => sort_cells(c, v, d),
            (Buf::Wide(c), Buf::Wide(v)) => sort_cells(c, v, d),
        }
    }

    /// Shrinks the backing buffers to fit (cached chunks are immutable once
    /// built, so excess capacity is pure waste).
    pub fn shrink_to_fit(&mut self) {
        self.coords.shrink_to_fit();
        self.values.shrink_to_fit();
    }
}

/// [`ChunkData::sort_by_coords`] at one pair of widths.
fn sort_cells<C: Coord, V: Copy>(coords: &mut [C], values: &mut [V], d: usize) {
    let n = values.len();
    let cell = |i: usize| i * d..(i + 1) * d;
    // `order[i]` is the cell that belongs at slot `i`; a slot is marked
    // finished by pointing it at itself.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| coords[cell(a as usize)].cmp(&coords[cell(b as usize)]));
    let mut held: Vec<C> = Vec::with_capacity(d);
    for start in 0..n {
        if order[start] as usize == start {
            continue;
        }
        held.clear();
        held.extend_from_slice(&coords[cell(start)]);
        let held_value = values[start];
        let mut slot = start;
        loop {
            let from = order[slot] as usize;
            order[slot] = slot as u32;
            if from == start {
                coords[cell(slot)].copy_from_slice(&held);
                values[slot] = held_value;
                break;
            }
            coords.copy_within(cell(from), slot * d);
            values[slot] = values[from];
            slot = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn is_wide(d: &ChunkData) -> bool {
        matches!(d.stored_coords(), Coords::Wide(_))
    }

    /// Every coordinate of every cell, row-major over all dimensions.
    fn all_coords(d: &ChunkData) -> Vec<u32> {
        d.iter().flat_map(|(c, _)| c.iter()).collect()
    }

    fn has_wide_values(d: &ChunkData) -> bool {
        matches!(d.raw_values(), Values::Wide(_))
    }

    /// Bytes a value takes at `d`'s value width.
    fn value_bytes(d: &ChunkData) -> usize {
        match d.raw_values() {
            Values::U16(_) => 2,
            Values::Wide(_) => 8,
        }
    }

    /// `cells` pushed into a fresh (narrow) container, and the same cells
    /// in the same layout built at `u32` and `f64`.
    fn both_widths(d: usize, cells: &[(Vec<u32>, f64)]) -> (ChunkData, ChunkData) {
        let mut narrow = ChunkData::new(d);
        for (coords, value) in cells {
            narrow.push(coords, *value);
        }
        let constants: Vec<Option<u32>> = narrow.columns().iter().map(|c| c.constant()).collect();
        let stored: Vec<u32> = narrow.stored_coords().iter().collect();
        let values: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
        (narrow, ChunkData::from_stored(&constants, stored, values))
    }

    /// Values only `f64` holds: one fraction, one odd integer past 2²⁴,
    /// one `f64` subnormal and one NaN payload.
    const WIDE_VALUES: [f64; 4] = [
        0.1,
        16_777_217.0,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(0x7ff8_0000_0000_0001),
    ];

    #[test]
    fn push_and_read_back() {
        let mut d = ChunkData::new(2);
        d.push(&[1, 2], 3.0);
        d.push(&[0, 5], 7.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.coords_of(0), &[1, 2]);
        assert_eq!(d.value_of(1), 7.0);
        let cells: Vec<_> = d.iter().collect();
        assert_eq!(cells[1].0, [0, 5]);
        assert_eq!(cells[1].1, 7.0);
        assert!(!is_wide(&d));
    }

    #[test]
    fn accounting_bytes_use_paper_tuple_size() {
        let mut d = ChunkData::new(5);
        for i in 0..10 {
            d.push(&[i, 0, 0, 0, 0], 1.0);
        }
        assert_eq!(d.accounting_bytes(), 200);
        d.push(&[70_000, 0, 0, 0, 0], 1.0);
        assert_eq!(d.accounting_bytes(), 220, "the width is not accounted");
    }

    /// Two bytes a stored coordinate; the four columns every cell agrees
    /// on, the one at `NARROW_MAX` among them, are held once and cost no
    /// heap a cell.
    #[test]
    fn a_narrow_cell_costs_two_bytes_a_coordinate() {
        let mut d = ChunkData::with_capacity(5, 10);
        for i in 0..10 {
            d.push(&[i, 1, 2, 3, NARROW_MAX], 1.0);
        }
        assert!(!is_wide(&d) && value_bytes(&d) == 2);
        assert_eq!(d.stride(), 1);
        assert_eq!(d.heap_bytes(), 10 * (2 + 2));
        let mut e = ChunkData::with_capacity(5, 10);
        for i in 0..10 {
            e.push(&[i, i + 1, i + 2, i + 3, NARROW_MAX - i], 1.0);
        }
        assert_eq!(e.heap_bytes(), 10 * (2 * 5 + 2));
    }

    /// A coordinate past `u16` that every cell holds is held once, at
    /// `u32`, and leaves the stored coordinates at `u16` — through every
    /// entry — until a cell differs along its column, which stores it
    /// wide.
    #[test]
    fn a_constant_past_u16_keeps_a_chunk_narrow() {
        let big = NARROW_MAX + 7;
        let cells = [[1, big], [2, big], [3, big]];
        let mut pushed = ChunkData::with_capacity(2, 4);
        for c in &cells {
            pushed.push(c, 1.0);
        }
        let flat: Vec<u32> = cells.concat();
        let raw = ChunkData::from_raw(2, flat.clone(), vec![1.0; 3]);
        let mut appended = ChunkData::new(2);
        appended.append(&pushed);
        let stored = ChunkData::from_stored(&[None, Some(big)], vec![1u16, 2, 3], vec![1.0; 3]);
        for d in [&pushed, &appended, &stored, &raw] {
            assert!(!is_wide(d));
            assert_eq!(d.columns(), [Column::Stored(0), Column::Constant(big)]);
            assert_eq!(all_coords(d), flat);
            assert_eq!(*d, raw);
        }
        assert_eq!(raw.columns(), pushed.columns());
        assert_eq!(pushed.heap_bytes(), 4 * (2 + 2));
        pushed.push(&[4, 5], 1.0);
        assert!(is_wide(&pushed));
        assert_eq!(pushed.heap_bytes(), 4 * (4 * 2 + 2), "the capacity is kept");
        assert_eq!(pushed.coords_of(2), [3, big]);
        assert_eq!(pushed.coords_of(3), [4, 5]);
    }

    /// A chunk is laid out as another only where that one's constants
    /// and width hold its cells.
    #[test]
    fn laid_out_as_refuses_what_the_layout_cannot_hold() {
        let like = ChunkData::from_raw(2, vec![1u16, 5, 2, 5], vec![1.0, 2.0]);
        assert_eq!(like.columns(), [Column::Stored(0), Column::Constant(5)]);
        let fits = ChunkData::from_raw(2, vec![3u32, 5, 4, 5], vec![3.0, 4.0]);
        let laid = fits.laid_out_as(&like).unwrap();
        assert!(!is_wide(&laid));
        assert_eq!((laid.columns(), &laid), (like.columns(), &fits));
        let other_constant = ChunkData::from_raw(2, vec![3u16, 6, 4, 6], vec![3.0, 4.0]);
        assert!(other_constant.laid_out_as(&like).is_none());
        let too_wide = ChunkData::from_raw(2, vec![NARROW_MAX + 1, 5, 4, 5], vec![3.0, 4.0]);
        assert!(too_wide.laid_out_as(&like).is_none());
        // Laid out as a wide chunk, narrow cells widen.
        let laid = like.laid_out_as(&too_wide).unwrap();
        assert!(is_wide(&laid));
        assert_eq!(laid, like);
    }

    #[test]
    fn push_widens_on_the_first_coordinate_past_u16() {
        let mut d = ChunkData::with_capacity(2, 4);
        d.push(&[1, NARROW_MAX], 1.0);
        assert!(!is_wide(&d));
        d.push(&[NARROW_MAX + 1, 0], 2.0);
        assert!(is_wide(&d));
        assert_eq!(
            d.heap_bytes(),
            4 * (4 * 2 + 2),
            "widening keeps the capacity"
        );
        d.push(&[3, 4], 3.0);
        assert_eq!(d.coords_of(0), &[1, NARROW_MAX]);
        assert_eq!(d.coords_of(1), &[NARROW_MAX + 1, 0]);
        assert_eq!(d.coords_of(2), &[3, 4]);
    }

    /// One side of a one-dimensional chunk's cells as one buffer: its
    /// coordinates (`u32`) or its values (`f64`).
    trait Side: Wide {
        /// The cells `(entry, other)`, each `other` on the other side, with
        /// the entries at `Self` if `wide`, else collected narrowest.
        fn chunk(cells: &[(Self, u16)], wide: bool) -> ChunkData;
        /// This side of `d`'s cells.
        fn held(d: &ChunkData) -> Held<'_, Self>;
        fn bits(self) -> u64;
    }

    impl Side for u32 {
        fn chunk(cells: &[(u32, u16)], wide: bool) -> ChunkData {
            let coords = cells.iter().map(|&(c, _)| c);
            let coords: Buf<u32> = if wide {
                coords.collect::<Vec<_>>().into()
            } else {
                coords.collect()
            };
            let values: ValueVec = cells.iter().map(|&(_, v)| f64::from(v)).collect();
            ChunkData::from_stored(&[None], coords, values)
        }

        fn held(d: &ChunkData) -> Coords<'_> {
            d.stored_coords()
        }

        fn bits(self) -> u64 {
            self.into()
        }
    }

    impl Side for f64 {
        fn chunk(cells: &[(f64, u16)], wide: bool) -> ChunkData {
            let values = cells.iter().map(|&(v, _)| v);
            let values: ValueVec = if wide {
                values.collect::<Vec<_>>().into()
            } else {
                values.collect()
            };
            let coords: Vec<u16> = cells.iter().map(|&(_, c)| c).collect();
            ChunkData::from_stored(&[None], coords, values)
        }

        fn held(d: &ChunkData) -> Values<'_> {
            d.raw_values()
        }

        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    /// A source held at `W` whose entries `fit` appends narrow, to a narrow
    /// chunk or to an empty one, which then equals it; the first entry
    /// `past` `u16` widens the chunk, every entry kept bit for bit, and
    /// `extend_from` takes cells with both their sides.
    fn append_widens_only_when_an_entry_does_not_fit_at<W: Side>(fit: [W; 2], past: W) {
        let is_wide = |d: &ChunkData| matches!(W::held(d), Held::Wide(_));
        let bits = |d: &ChunkData| W::held(d).iter().map(W::bits).collect::<Vec<_>>();
        let cells = [(fit[0], 1), (fit[1], 2)];
        let (narrow, wide_small) = (W::chunk(&cells, false), W::chunk(&cells, true));
        assert!(!is_wide(&narrow) && is_wide(&wide_small));
        let mut d = ChunkData::new(1);
        d.append(&wide_small);
        assert!(!is_wide(&d), "entries that fit stay narrow");
        assert_eq!(d, wide_small);
        let mut a = narrow.clone();
        a.append(&wide_small);
        assert!(!is_wide(&a), "entries that fit stay narrow");
        a.append(&W::chunk(&[(past, 3)], false));
        assert!(is_wide(&a));
        a.append(&narrow);
        let want = [fit[0], fit[1], fit[0], fit[1], past, fit[0], fit[1]];
        assert_eq!(bits(&a), want.map(W::bits));
        let mut b = ChunkData::new(1);
        b.extend_from(&a, 3..5);
        assert_eq!(b, W::chunk(&[(fit[1], 2), (past, 3)], false));
        assert_eq!(bits(&b), [fit[1], past].map(W::bits));
    }

    #[test]
    fn append_widens_only_when_a_coordinate_does_not_fit() {
        append_widens_only_when_an_entry_does_not_fit_at::<u32>([5, 6], 1 << 16);
    }

    #[test]
    fn a_wide_source_whose_values_fit_appends_narrow() {
        append_widens_only_when_an_entry_does_not_fit_at::<f64>([1.0, 65_535.0], -0.0);
    }

    #[test]
    fn sort_by_coords_orders_lexicographically() {
        let mut d = ChunkData::new(2);
        d.push(&[2, 0], 1.0);
        d.push(&[0, 9], 2.0);
        d.push(&[2, 0], 3.0); // duplicate coords keep both cells
        d.push(&[0, 1], 4.0);
        d.sort_by_coords();
        assert_eq!(d.coords_of(0), &[0, 1]);
        assert_eq!(d.coords_of(1), &[0, 9]);
        assert_eq!(d.coords_of(2), &[2, 0]);
        assert_eq!(d.value_of(0), 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place sort puts the cells where a gather into fresh
        /// buffers would, keeps every cell, and allocates no cell buffer.
        #[test]
        fn sort_by_coords_permutes_in_place(
            cells in (1usize..=5).prop_flat_map(|d| {
                proptest::collection::vec(
                    (proptest::collection::vec(0u32..4, d), -1e3f64..1e3),
                    0..=300,
                )
                .prop_map(move |cells| (d, cells))
            }),
        ) {
            let (d, cells) = cells;
            let mut data = ChunkData::new(d);
            for (coords, value) in &cells {
                data.push(coords, *value);
            }
            let heap = data.heap_bytes();
            let mut gathered = cells.clone();
            gathered.sort_by(|a, b| a.0.cmp(&b.0));
            data.sort_by_coords();
            prop_assert_eq!(data.heap_bytes(), heap);
            let want: Vec<u32> = gathered.iter().flat_map(|(c, _)| c.iter().copied()).collect();
            prop_assert_eq!(all_coords(&data), want);
            // Equal coordinates may come out in any order: compare the
            // cells as a multiset.
            let mut got: Vec<_> = data.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
            let mut want: Vec<_> = cells.iter().map(|(c, v)| (c.clone(), v.to_bits())).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// A `u16` and a `u32` chunk holding the same cells are equal,
        /// iterate alike and sort alike; a changed cell breaks equality.
        #[test]
        fn the_two_widths_hold_the_same_cells(
            cells in (1usize..=4).prop_flat_map(|d| {
                proptest::collection::vec(
                    (proptest::collection::vec(0u32..6, d), -1e3f64..1e3),
                    1..=100,
                )
                .prop_map(move |cells| (d, cells))
            }),
        ) {
            let (d, cells) = cells;
            let (mut narrow, mut wide) = both_widths(d, &cells);
            prop_assert!(!is_wide(&narrow) && is_wide(&wide));
            prop_assert_eq!(&narrow, &wide);
            prop_assert!(narrow.iter().eq(wide.iter()));
            narrow.shrink_to_fit();
            wide.shrink_to_fit();
            prop_assert_eq!(narrow.columns(), wide.columns());
            prop_assert_eq!(
                narrow.heap_bytes() + (2 * narrow.stride() + 8 - value_bytes(&narrow)) * cells.len(),
                wide.heap_bytes()
            );
            // Distinct cells sort to one order; equal ones carry their
            // value, so compare the multiset after the sort.
            narrow.sort_by_coords();
            wide.sort_by_coords();
            prop_assert_eq!(all_coords(&narrow), all_coords(&wide));
            let key = |d: &ChunkData| {
                let mut cells: Vec<_> = d.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
                cells.sort_unstable();
                cells
            };
            prop_assert_eq!(key(&narrow), key(&wide));
            let mut other = wide.clone();
            other.push(&vec![0; d], 0.0);
            prop_assert_ne!(&narrow, &other);
        }

    /// The value analogue: an `f64` chunk and one collected at the
    /// narrowest width holding the same cells (whole numbers, fractions,
    /// `-0.0` and `±∞` among them) are equal, iterate alike, sort alike and
    /// differ in heap by the value widths; a changed value breaks equality.
    #[test]
    fn the_two_value_widths_hold_the_same_cells(
        cells in (1usize..=4).prop_flat_map(|d| {
            let value = prop_oneof![
                (0u32..2000).prop_map(|v| f64::from(v) - 1000.0),
                (0u32..2000).prop_map(f64::from),
                -1e3f64..1e3,
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ];
            proptest::collection::vec((proptest::collection::vec(0u16..6, d), value), 1..=100)
                .prop_map(move |cells| (d, cells))
        }),
    ) {
        let (d, cells) = cells;
        let coords: Vec<u16> = cells.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        let values: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
        let mut wide = ChunkData::from_raw(d, coords.clone(), values.clone());
        let mut narrow = ChunkData::from_raw(d, coords, values.iter().copied().collect::<ValueVec>());
        prop_assert!(has_wide_values(&wide));
        let whole = values.iter().all(|&v| v.fract() == 0.0 && (0.0..=65_535.0).contains(&v)
            && v.is_sign_positive());
        prop_assert_eq!(value_bytes(&narrow), if whole { 2 } else { 8 });
        let bits = |d: &ChunkData| d.raw_values().iter().map(f64::to_bits).collect::<Vec<_>>();
        let key = |d: &ChunkData| {
            let mut cells: Vec<_> = d.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
            cells.sort_unstable();
            cells
        };
        prop_assert_eq!(&narrow, &wide);
        prop_assert!(narrow.iter().eq(wide.iter()));
        prop_assert_eq!(bits(&narrow), bits(&wide));
        narrow.shrink_to_fit();
        wide.shrink_to_fit();
        prop_assert_eq!(
            narrow.heap_bytes() + (8 - value_bytes(&narrow)) * cells.len(),
            wide.heap_bytes()
        );
        wide.sort_by_coords();
        narrow.sort_by_coords();
        prop_assert_eq!(all_coords(&narrow), all_coords(&wide));
        prop_assert_eq!(key(&narrow), key(&wide));
        let mut other = narrow.clone();
        let changed = if other.value_of(0) == 7.0 { 8.0 } else { 7.0 };
        *other.value_of_mut(0) = changed;
        prop_assert_ne!(&other, &wide);
    }
    }

    /// Every way a value enters a chunk widens it on a value `u16` does
    /// not hold, keeps the capacity, and keeps every value's bits.
    #[test]
    fn each_entry_widens_on_a_value_u16_does_not_hold() {
        for wide in WIDE_VALUES {
            let narrow_cells = || {
                let mut d = ChunkData::with_capacity(1, 4);
                d.push(&[0], 1.0);
                d.push(&[1], 2.0);
                assert!(!has_wide_values(&d));
                d
            };
            let mut source = ChunkData::new(1);
            source.push(&[7], wide);
            assert!(has_wide_values(&source), "push of {wide:e}");
            let want = [1.0f64.to_bits(), 2.0f64.to_bits(), wide.to_bits()];
            let check = |d: &ChunkData, how: &str| {
                assert!(has_wide_values(d), "{how} of {wide:e}");
                let got: Vec<u64> = d.raw_values().iter().map(f64::to_bits).collect();
                assert_eq!(got, want, "{how} of {wide:e}");
            };

            let mut pushed = narrow_cells();
            pushed.push(&[7], wide);
            assert_eq!(
                pushed.heap_bytes(),
                4 * (2 + 8),
                "widening keeps the capacity"
            );
            check(&pushed, "push");

            let mut appended = narrow_cells();
            appended.append(&source);
            check(&appended, "append");

            let mut extended = narrow_cells();
            extended.extend_from(&pushed, 2..3);
            check(&extended, "extend_from");

            let mut written = narrow_cells();
            written.push(&[7], 3.0);
            *written.value_of_mut(2) = wide;
            check(&written, "value_of_mut");

            let collected: ValueVec = [1.0, 2.0, wide].into_iter().collect();
            check(
                &ChunkData::from_raw(1, vec![0u16, 1, 7], collected),
                "collect",
            );
        }
    }

    /// Whole numbers from 0 to 65,535 stay at `u16`, two bytes a value;
    /// `-0.0`, a fraction, 65,536 and a negative number each widen the
    /// buffer to `f64`, every bit kept.
    #[test]
    fn whole_numbers_stay_at_u16() {
        let mut d = ChunkData::with_capacity(1, 8);
        for v in [0.0, 1.0, 1000.0, 65_535.0] {
            d.push(&[0], v);
        }
        assert_eq!(value_bytes(&d), 2);
        assert_eq!(d.heap_bytes(), 8 * 2, "the one coordinate is held once");
        *d.value_of_mut(0) = 7.0;
        assert_eq!(value_bytes(&d), 2, "a written value that fits stays narrow");
        for v in [-0.0, 0.5, 65_536.0, -1.0] {
            let mut e = d.clone();
            e.push(&[1], v);
            assert_eq!(value_bytes(&e), 8, "{v:e}");
            let bits: Vec<u64> = e.raw_values().iter().map(f64::to_bits).collect();
            let want: Vec<u64> = [7.0, 1.0, 1000.0, 65_535.0, v].map(f64::to_bits).to_vec();
            assert_eq!(bits, want, "{v:e}");
        }
    }

    /// A value only `f64` holds widens a `u16` buffer straight to `f64`,
    /// keeping its capacity.
    #[test]
    fn a_u16_buffer_widens_straight_to_the_width_a_value_needs() {
        for wide in WIDE_VALUES {
            let mut d = ChunkData::with_capacity(1, 4);
            d.push(&[0], 3.0);
            d.push(&[1], wide);
            assert!(has_wide_values(&d), "{wide:e}");
            assert_eq!(d.heap_bytes(), 4 * (2 + 8), "widening keeps the capacity");
            let bits: Vec<u64> = d.raw_values().iter().map(f64::to_bits).collect();
            assert_eq!(bits, [3.0f64.to_bits(), wide.to_bits()]);
        }
    }

    /// One way values enter a chunk.
    #[derive(Debug, Clone)]
    enum Entry {
        Push(f64),
        /// Appends a chunk holding these values, at `f64` or, pushed, at
        /// their narrowest width.
        Append(Vec<f64>, bool),
        /// `extend_from` over a range of a chunk holding these values.
        ExtendFrom(Vec<f64>, usize, usize),
        /// `value_of_mut` of cell `i mod len`.
        Write(usize, f64),
    }

    /// Values on the `u16` width's edge: whole numbers it holds, `-0.0`,
    /// 65,535, 65,536, `0.5`, a negative whole number, a NaN, values exact
    /// only in `f64`, and NaN payloads.
    fn arb_value() -> impl Strategy<Value = f64> {
        const EDGES: [f64; 6] = [-0.0, 65_535.0, 65_536.0, 0.5, -3.0, f64::NAN];
        prop_oneof![
            (0u32..=65_535).prop_map(f64::from),
            (0u32..=65_535).prop_map(f64::from),
            (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
            (0usize..WIDE_VALUES.len()).prop_map(|i| WIDE_VALUES[i]),
            (1u64..1 << 51).prop_map(|p| f64::from_bits(0x7ff0_0000_0000_0000 | p)),
        ]
    }

    fn arb_entry() -> impl Strategy<Value = Entry> {
        let values = || proptest::collection::vec(arb_value(), 0..6);
        prop_oneof![
            arb_value().prop_map(Entry::Push),
            (values(), proptest::bool::ANY).prop_map(|(v, wide)| Entry::Append(v, wide)),
            (values(), 0usize..6, 0usize..6).prop_map(|(v, a, b)| Entry::ExtendFrom(v, a, b)),
            (0usize..64, arb_value()).prop_map(|(i, v)| Entry::Write(i, v)),
        ]
    }

    /// The bytes a value takes at the narrowest width that holds every one
    /// of `values`, by their numbers rather than by round trips.
    fn narrowest_bytes(values: &[f64]) -> usize {
        let bytes = |v: f64| {
            if (0.0..=65_535.0).contains(&v) && v.fract() == 0.0 && v.is_sign_positive() {
                2
            } else {
                8
            }
        };
        values.iter().map(|&v| bytes(v)).max().unwrap_or(2)
    }

    /// A one-dimensional chunk of `values`, at `f64` or at the narrowest
    /// width.
    fn chunk_of(values: &[f64], wide: bool) -> ChunkData {
        let coords: Vec<u16> = (0..values.len() as u16).collect();
        if wide {
            ChunkData::from_raw(1, coords, values.to_vec())
        } else {
            ChunkData::from_raw(1, coords, values.iter().copied().collect::<ValueVec>())
        }
    }

    fn value_bits(d: &ChunkData) -> Vec<u64> {
        d.raw_values().iter().map(f64::to_bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Pushes, appends, `extend_from`, `value_of_mut` and `collect`
        /// keep every value's bits, and after each a chunk holds its
        /// values at the narrowest width that holds every value that ever
        /// entered it: a buffer widens, never narrows.
        #[test]
        fn every_entry_keeps_bits_at_the_narrowest_width(
            entries in proptest::collection::vec(arb_entry(), 1..24),
        ) {
            let mut d = ChunkData::new(1);
            let (mut want, mut entered) = (Vec::<f64>::new(), Vec::<f64>::new());
            for entry in entries {
                match entry {
                    Entry::Push(v) => {
                        d.push(&[0], v);
                        want.push(v);
                        entered.push(v);
                    }
                    Entry::Append(values, wide) => {
                        d.append(&chunk_of(&values, wide));
                        want.extend(&values);
                        entered.extend(&values);
                    }
                    Entry::ExtendFrom(values, a, b) => {
                        let (a, b) = (a.min(b).min(values.len()), a.max(b).min(values.len()));
                        d.extend_from(&chunk_of(&values, true), a..b);
                        want.extend(&values[a..b]);
                        entered.extend(&values[a..b]);
                    }
                    Entry::Write(_, _) if want.is_empty() => {}
                    Entry::Write(i, v) => {
                        let i = i % want.len();
                        *d.value_of_mut(i) = v;
                        want[i] = v;
                        entered.push(v);
                    }
                }
                prop_assert_eq!(value_bits(&d), want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                prop_assert_eq!(value_bytes(&d), narrowest_bytes(&entered));
            }
            let collected = chunk_of(&want, false);
            prop_assert_eq!(value_bits(&collected), value_bits(&d));
            prop_assert_eq!(value_bytes(&collected), narrowest_bytes(&want));
        }
    }

    /// `d`-dimensional cells (no NaN among their values) where some
    /// dimensions hold one coordinate, past `u16` for some, and the others
    /// vary over a few values — or happen to agree too.
    fn arb_layout() -> impl Strategy<Value = (usize, Vec<(Vec<u32>, f64)>)> {
        (1usize..=4).prop_flat_map(|d| {
            let value = prop_oneof![(0u32..=70_000).prop_map(f64::from), -1e3f64..1e3];
            let cells =
                proptest::collection::vec((proptest::collection::vec(0u32..6, d), value), 1..=40);
            (proptest::collection::vec(0u32..8, d), cells, 0u32..6).prop_map(
                move |(kinds, mut cells, spread)| {
                    for (coords, _) in &mut cells {
                        for (c, &kind) in coords.iter_mut().zip(&kinds) {
                            *c = match kind {
                                0..=3 => *c % (spread + 1),
                                4 | 5 => kind - 4,
                                _ => NARROW_MAX + kind - 6,
                            };
                        }
                    }
                    (d, cells)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Chunks built from the same cells by `push`, `append`,
        /// `extend_from`, `from_raw` and a collected `from_raw` each equal
        /// the cells held fully, by value; each holds the columns its cells
        /// agree on once (`extend_from` of a fully held chunk keeps its
        /// layout), and its heap is its stored columns and values only.
        #[test]
        fn constant_columns_are_held_once_through_every_entry(
            layout in arb_layout(),
            cut in 0usize..40,
        ) {
            let (d, cells) = layout;
            let flat: Vec<u32> = cells.iter().flat_map(|(c, _)| c.iter().copied()).collect();
            let values: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
            let full = ChunkData::from_stored(&vec![None; d], flat.clone(), values.clone());
            prop_assert_eq!(full.stride(), d);
            let agreed: Vec<Option<u32>> = (0..d)
                .map(|k| {
                    let first = cells[0].0[k];
                    cells.iter().all(|(c, _)| c[k] == first).then_some(first)
                })
                .collect();

            let mut pushed = ChunkData::new(d);
            let cut = cut.min(cells.len());
            let mut parts = [ChunkData::new(d), ChunkData::new(d)];
            for (i, (c, v)) in cells.iter().enumerate() {
                pushed.push(c, *v);
                parts[usize::from(i >= cut)].push(c, *v);
            }
            let mut appended = ChunkData::with_capacity(d, cells.len());
            parts.iter().for_each(|part| appended.append(part));
            let mut extended = ChunkData::new(d);
            extended.extend_from(&full, 0..cut);
            extended.extend_from(&full, cut..cells.len());
            let raw = ChunkData::from_raw(d, flat.clone(), values.clone());
            let collected =
                ChunkData::from_raw(d, flat.clone(), values.iter().copied().collect::<ValueVec>());

            let chunks_pushed = pushed.clone();
            for (how, mut chunk) in [
                ("push", pushed),
                ("append", appended),
                ("extend_from", extended),
                ("from_raw", raw),
                ("collect", collected),
            ] {
                prop_assert_eq!(&chunk, &full, "{}", how);
                prop_assert_eq!(&full, &chunk, "{}", how);
                prop_assert_eq!(all_coords(&chunk), flat.clone(), "{}", how);
                let constants: Vec<Option<u32>> =
                    chunk.columns().iter().map(|c| c.constant()).collect();
                if how == "extend_from" {
                    prop_assert_eq!(chunk.columns(), full.columns());
                } else {
                    prop_assert_eq!(&constants, &agreed, "{}", how);
                }
                // `from_raw` keeps the width it is given unless it drops a
                // column; the others widen on the first stored coordinate
                // past `u16`.
                let wide = chunk.stored_coords().iter().any(|c| c > NARROW_MAX);
                let given = (how == "from_raw" || how == "collect") && chunk.stride() == d;
                prop_assert_eq!(is_wide(&chunk), wide || given, "{}", how);
                // The pushed cells laid out as this chunk are this chunk.
                let laid = chunks_pushed.laid_out_as(&chunk).expect("the layout holds them");
                prop_assert_eq!(laid.columns(), chunk.columns(), "{}", how);
                prop_assert_eq!(is_wide(&laid), is_wide(&chunk), "{}", how);
                prop_assert_eq!(&laid, &chunk, "{}", how);
                chunk.shrink_to_fit();
                let coord_bytes = if is_wide(&chunk) { 4 } else { 2 };
                prop_assert_eq!(
                    chunk.heap_bytes(),
                    cells.len() * (chunk.stride() * coord_bytes + value_bytes(&chunk)),
                    "{}", how
                );
            }

            // A cell that differs only along a column the others hold
            // once breaks equality.
            if let Some(k) = agreed.iter().position(Option::is_some) {
                let mut changed = flat.clone();
                changed[k] += 1;
                prop_assert_ne!(&ChunkData::from_raw(d, changed, values.clone()), &full);
            }
        }
    }

    #[test]
    fn value_views_compare_by_value_across_widths() {
        assert_eq!(Values::U16(&[1, 2]), Values::Wide(&[1.0, 2.0]));
        assert_ne!(Values::U16(&[1, 2]), Values::Wide(&[1.0, 2.5]));
        assert_eq!(
            Values::U16(&[0]),
            Values::Wide(&[-0.0]),
            "zeros are equal by value"
        );
        assert_eq!(format!("{:?}", Values::U16(&[7])), "[7.0]");
        assert_ne!(Values::U16(&[1]), Values::Wide(&[1.0, 2.0]));
        assert_ne!(
            Values::Wide(&[f64::NAN]),
            Values::Wide(&[f64::NAN]),
            "NaN is never equal"
        );
        assert_eq!(format!("{:?}", Values::Wide(&[1.5])), "[1.5]");
    }

    /// One cell given, or read off a chunk at either width that holds
    /// its second column once, compares alike.
    #[test]
    fn views_compare_by_value_across_widths() {
        let chunk = ChunkData::from_raw(2, vec![1u16, 2, 3, 2], vec![0.0, 0.0]);
        let wide_chunk = ChunkData::from_raw(2, vec![1u32, 2, 3, 2], vec![0.0, 0.0]);
        assert_eq!(chunk.columns(), [Column::Stored(0), Column::Constant(2)]);
        let cells = [
            CellCoords::from(&[1, 2]),
            chunk.coords_of(0),
            wide_chunk.coords_of(0),
        ];
        for c in &cells {
            assert_eq!(*c, cells[0]);
            assert_eq!(format!("{c:?}"), "[1, 2]");
        }
        assert_ne!(chunk.coords_of(1), cells[0]);
        assert_ne!(chunk.coords_of(0), [1, 2, 3]);
        assert_eq!(chunk.coords_of(1), [3, 2]);
        assert_eq!(chunk, wide_chunk);
    }

    #[test]
    fn from_raw_checks_arity() {
        let d = ChunkData::from_raw(2, vec![1u16, 2, 3, 4], vec![1.0, 2.0]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_mismatch() {
        let _ = ChunkData::from_raw(2, vec![1u32, 2, 3], vec![1.0, 2.0]);
    }
}
