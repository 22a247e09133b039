use std::fmt;
use std::hash::{Hash, Hasher};
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
/// `match` on [`ChunkData::raw_coords`].
pub trait Coord: Copy + Ord + Into<u32> + 'static {
    /// `c` at this width; the caller knows it fits.
    fn from_u32(c: u32) -> Self;

    /// The coordinate as an index into a per-value table.
    #[inline(always)]
    fn index(self) -> usize {
        let c: u32 = self.into();
        c as usize
    }

    /// [`ChunkData::from_raw`] at this width.
    #[doc(hidden)]
    fn chunk(n_dims: usize, coords: Vec<Self>, values: ValueVec) -> ChunkData;
}

impl Coord for u16 {
    #[inline(always)]
    fn from_u32(c: u32) -> Self {
        debug_assert!(c <= NARROW_MAX, "coordinate {c} does not fit u16");
        c as u16
    }

    fn chunk(n_dims: usize, coords: Vec<u16>, values: ValueVec) -> ChunkData {
        ChunkData {
            n_dims,
            coords: CoordVec::U16(coords),
            values,
        }
    }
}

impl Coord for u32 {
    #[inline(always)]
    fn from_u32(c: u32) -> Self {
        c
    }

    fn chunk(n_dims: usize, coords: Vec<u32>, values: ValueVec) -> ChunkData {
        ChunkData {
            n_dims,
            coords: CoordVec::U32(coords),
            values,
        }
    }
}

/// Whether every coordinate of `coords` fits the narrow width.
#[inline]
fn fits_narrow(coords: &[u32]) -> bool {
    coords.iter().fold(0, |all, &c| all | c) <= NARROW_MAX
}

/// Row-major coordinates as a chunk holds them, tagged with their width:
/// all of a chunk's cells ([`ChunkData::raw_coords`]) or one cell's
/// ([`ChunkData::coords_of`]). Two views compare and hash by their
/// values, whatever their widths.
#[derive(Clone, Copy)]
pub enum Coords<'a> {
    /// Every coordinate fits 16 bits.
    U16(&'a [u16]),
    /// Some coordinate may not.
    U32(&'a [u32]),
}

impl<'a> Coords<'a> {
    /// Number of coordinates.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            Coords::U16(c) => c.len(),
            Coords::U32(c) => c.len(),
        }
    }

    /// Whether the view holds no coordinate.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Coordinate `i`.
    #[inline]
    pub fn get(self, i: usize) -> u32 {
        match self {
            Coords::U16(c) => u32::from(c[i]),
            Coords::U32(c) => c[i],
        }
    }

    /// The coordinates in order, each as a `u32`.
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The coordinates as a `u32` vector.
    pub fn to_vec(self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Coordinates `range` of the view.
    #[inline]
    fn slice(self, range: Range<usize>) -> Self {
        match self {
            Coords::U16(c) => Coords::U16(&c[range]),
            Coords::U32(c) => Coords::U32(&c[range]),
        }
    }

    fn eq_u32(self, other: &[u32]) -> bool {
        match self {
            Coords::U32(c) => c == other,
            Coords::U16(_) => self.len() == other.len() && self.iter().eq(other.iter().copied()),
        }
    }
}

impl PartialEq for Coords<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Coords::U16(a), Coords::U16(b)) => a == b,
            (_, Coords::U32(b)) => self.eq_u32(b),
            (Coords::U32(a), _) => other.eq_u32(a),
        }
    }
}

impl Eq for Coords<'_> {}

impl Hash for Coords<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        self.iter().for_each(|c| state.write_u32(c));
    }
}

impl fmt::Debug for Coords<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<[u32]> for Coords<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        self.eq_u32(other)
    }
}

impl<const N: usize> PartialEq<[u32; N]> for Coords<'_> {
    fn eq(&self, other: &[u32; N]) -> bool {
        self.eq_u32(other)
    }
}

impl<const N: usize> PartialEq<&[u32; N]> for Coords<'_> {
    fn eq(&self, other: &&[u32; N]) -> bool {
        self.eq_u32(*other)
    }
}

impl<'a> From<&'a [u32]> for Coords<'a> {
    fn from(coords: &'a [u32]) -> Self {
        Coords::U32(coords)
    }
}

impl<'a> From<&'a Vec<u32>> for Coords<'a> {
    fn from(coords: &'a Vec<u32>) -> Self {
        Coords::U32(coords)
    }
}

impl<'a, const N: usize> From<&'a [u32; N]> for Coords<'a> {
    fn from(coords: &'a [u32; N]) -> Self {
        Coords::U32(coords)
    }
}

/// A chunk's row-major coordinates, at its width.
#[derive(Debug, Clone)]
enum CoordVec {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Default for CoordVec {
    fn default() -> Self {
        CoordVec::U16(Vec::new())
    }
}

/// A width a [`ChunkData`] holds its measure values at, narrowest first:
/// `u16` while every value is a whole number from 0 to 65,535 (`+0.0`, not
/// `-0.0`), `f32` while every value survives `f64 → f32 → f64` bit for
/// bit, `f64` once one does not. Code over a chunk's values is written
/// once, generic over this trait, and instantiated per width by a `match`
/// on [`ChunkData::raw_values`]; widening to `f64` is exact.
pub trait Value: Copy + Into<f64> + 'static {
    /// Whether `v` survives the round trip through this width bit for bit.
    fn holds(v: f64) -> bool;

    /// `v` at this width; the caller knows it holds.
    fn from_f64(v: f64) -> Self;
}

impl Value for u16 {
    /// Not a fraction, a negative number, `-0.0`, a NaN or a number past
    /// 65,535, each of which the saturating cast changes.
    #[inline(always)]
    fn holds(v: f64) -> bool {
        f64::from(v as u16).to_bits() == v.to_bits()
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        debug_assert!(Self::holds(v), "value {v:e} does not fit u16");
        v as u16
    }
}

impl Value for f32 {
    /// Not a NaN payload or signalling bit `f32` drops, not an `f64`
    /// subnormal, not a value like `0.1` or an odd integer past 2²⁴ that
    /// `f32` rounds.
    #[inline(always)]
    fn holds(v: f64) -> bool {
        f64::from(v as f32).to_bits() == v.to_bits()
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        debug_assert!(Self::holds(v), "value {v:e} does not fit f32");
        v as f32
    }
}

impl Value for f64 {
    #[inline(always)]
    fn holds(_: f64) -> bool {
        true
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
}

/// The [`Value`] widths, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValueWidth {
    /// `u16`: whole numbers from 0 to 65,535.
    U16,
    /// `f32`: values that survive `f64 → f32 → f64` bit for bit.
    F32,
    /// `f64`: every value.
    F64,
}

impl ValueWidth {
    /// The narrowest width that holds every value of `values`: one fold
    /// with no early exit, which vectorises.
    fn of<V: Value>(values: &[V]) -> Self {
        let (u16s, f32s) = values.iter().fold((true, true), |(u16s, f32s), &v| {
            let v = v.into();
            (u16s & u16::holds(v), f32s & f32::holds(v))
        });
        if u16s {
            ValueWidth::U16
        } else if f32s {
            ValueWidth::F32
        } else {
            ValueWidth::F64
        }
    }
}

/// One `match` arm per value width of `$enum` (`Values` or `ValueStore`),
/// each binding the width's buffer to `$v`.
macro_rules! each_width {
    ($enum:ident, $on:expr, $v:ident => $body:expr) => {
        match $on {
            $enum::U16($v) => $body,
            $enum::F32($v) => $body,
            $enum::F64($v) => $body,
        }
    };
}

/// Measure values as a chunk holds them, tagged with their width: all of a
/// chunk's cells ([`ChunkData::raw_values`]). Two views compare by value,
/// whatever their widths.
#[derive(Clone, Copy)]
pub enum Values<'a> {
    /// Every value is a whole number from 0 to 65,535.
    U16(&'a [u16]),
    /// Every value round-trips through `f32`.
    F32(&'a [f32]),
    /// Some value may not.
    F64(&'a [f64]),
}

impl<'a> Values<'a> {
    /// Number of values.
    #[inline]
    pub fn len(self) -> usize {
        each_width!(Values, self, v => v.len())
    }

    /// Whether the view holds no value.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Value `i`, exactly.
    #[inline]
    pub fn get(self, i: usize) -> f64 {
        match self {
            Values::U16(v) => f64::from(v[i]),
            Values::F32(v) => f64::from(v[i]),
            Values::F64(v) => v[i],
        }
    }

    /// The values in order, each as an `f64`.
    pub fn iter(self) -> impl ExactSizeIterator<Item = f64> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The values as an `f64` vector.
    pub fn to_vec(self) -> Vec<f64> {
        self.iter().collect()
    }

    /// The width the view holds its values at.
    #[inline]
    pub fn width(self) -> ValueWidth {
        match self {
            Values::U16(_) => ValueWidth::U16,
            Values::F32(_) => ValueWidth::F32,
            Values::F64(_) => ValueWidth::F64,
        }
    }

    /// The narrowest width that holds every value of the view: its own, or
    /// a narrower one all its values fit. A view at `u16` costs nothing;
    /// a wider one is folded once, with no early exit.
    pub fn narrowest(self) -> ValueWidth {
        match self {
            Values::U16(_) => ValueWidth::U16,
            Values::F32(v) => ValueWidth::of(v),
            Values::F64(v) => ValueWidth::of(v),
        }
    }

    /// Values `range` of the view.
    #[inline]
    fn slice(self, range: Range<usize>) -> Self {
        match self {
            Values::U16(v) => Values::U16(&v[range]),
            Values::F32(v) => Values::F32(&v[range]),
            Values::F64(v) => Values::F64(&v[range]),
        }
    }
}

impl PartialEq for Values<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Values::U16(a), Values::U16(b)) => a == b,
            (Values::F32(a), Values::F32(b)) => a == b,
            (Values::F64(a), Values::F64(b)) => a == b,
            (a, b) => a.len() == b.len() && a.iter().eq(b.iter()),
        }
    }
}

impl fmt::Debug for Values<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Measure values at their width, as a [`ChunkData`] holds them: `u16`
/// from the start ([`ValueVec::with_capacity`], [`Default`],
/// [`FromIterator`]), widened in place, straight to the width it needs, by
/// the first pushed value the buffer's width does not hold. A producer
/// that fills values before it has the coordinates builds one and hands it
/// to [`ChunkData::from_raw`]; a `Vec<u16>`, `Vec<f32>` or `Vec<f64>`
/// converts at its own width, as given.
#[derive(Debug, Clone)]
pub struct ValueVec(ValueStore);

#[derive(Debug, Clone)]
enum ValueStore {
    U16(Vec<u16>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Default for ValueVec {
    fn default() -> Self {
        ValueVec(ValueStore::U16(Vec::new()))
    }
}

impl From<Vec<u16>> for ValueVec {
    fn from(values: Vec<u16>) -> Self {
        ValueVec(ValueStore::U16(values))
    }
}

impl From<Vec<f32>> for ValueVec {
    fn from(values: Vec<f32>) -> Self {
        ValueVec(ValueStore::F32(values))
    }
}

impl From<Vec<f64>> for ValueVec {
    fn from(values: Vec<f64>) -> Self {
        ValueVec(ValueStore::F64(values))
    }
}

/// Appends `values` to `to` at width `T`; each value holds.
fn extend_at<T: Value>(to: &mut Vec<T>, values: Values<'_>) {
    fn cast<S: Value, T: Value>(to: &mut Vec<T>, from: &[S]) {
        to.extend(from.iter().map(|&x| T::from_f64(x.into())));
    }
    each_width!(Values, values, v => cast(to, v));
}

/// `values` at width `T`, in a buffer of `capacity`; each value holds.
fn converted<T: Value>(values: Values<'_>, capacity: usize) -> Vec<T> {
    let mut to = Vec::with_capacity(capacity);
    extend_at(&mut to, values);
    to
}

/// Bytes of heap `v` holds.
fn heap<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl ValueVec {
    /// An empty narrow buffer with room for `values` values.
    pub fn with_capacity(values: usize) -> Self {
        ValueVec(ValueStore::U16(Vec::with_capacity(values)))
    }

    #[inline]
    fn len(&self) -> usize {
        self.view().len()
    }

    /// Appends `v`, widening the buffer first if it does not fit.
    #[inline]
    pub fn push(&mut self, v: f64) {
        match &mut self.0 {
            ValueStore::U16(n) if u16::holds(v) => n.push(v as u16),
            ValueStore::F32(n) if f32::holds(v) => n.push(v as f32),
            ValueStore::F64(w) => w.push(v),
            _ => self.widen_and_push(v),
        }
    }

    /// [`ValueVec::push`] of a value the buffer's width does not hold.
    #[cold]
    #[inline(never)]
    fn widen_and_push(&mut self, v: f64) {
        self.widen(ValueWidth::of(&[v]));
        match &mut self.0 {
            ValueStore::F32(n) => n.push(v as f32),
            ValueStore::F64(w) => w.push(v),
            ValueStore::U16(_) => unreachable!("widened past u16"),
        }
    }

    /// Sets value `i` to `v`, widening the buffer first if it does not fit.
    fn set(&mut self, i: usize, v: f64) {
        let width = ValueWidth::of(&[v]);
        if width > self.view().width() {
            self.widen(width);
        }
        match &mut self.0 {
            ValueStore::U16(n) => n[i] = u16::from_f64(v),
            ValueStore::F32(n) => n[i] = f32::from_f64(v),
            ValueStore::F64(w) => w[i] = v,
        }
    }

    /// Appends `values`, widening the buffer first, to the narrowest width
    /// that holds them, if one does not fit.
    fn extend_from_view(&mut self, values: Values<'_>) {
        if values.width() > self.view().width() {
            self.widen(values.narrowest());
        }
        match (&mut self.0, values) {
            (ValueStore::U16(to), Values::U16(v)) => to.extend_from_slice(v),
            (ValueStore::F32(to), Values::F32(v)) => to.extend_from_slice(v),
            (ValueStore::F64(to), Values::F64(v)) => to.extend_from_slice(v),
            (store, v) => each_width!(ValueStore, store, to => extend_at(to, v)),
        }
    }

    /// Moves the values to width `to`, keeping the capacity (a no-op when
    /// they are already at least that wide). Out of line: a chunk widens
    /// twice at most, and [`ValueVec::push`] stays small enough to inline
    /// into every producer's loop.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, to: ValueWidth) {
        let (values, capacity) = (self.view(), self.capacity());
        if to > values.width() {
            self.0 = match to {
                ValueWidth::F32 => ValueStore::F32(converted(values, capacity)),
                ValueWidth::F64 => ValueStore::F64(converted(values, capacity)),
                ValueWidth::U16 => unreachable!("nothing is narrower than u16"),
            };
        }
    }

    /// The values at their width.
    #[inline]
    fn view(&self) -> Values<'_> {
        match &self.0 {
            ValueStore::U16(v) => Values::U16(v),
            ValueStore::F32(v) => Values::F32(v),
            ValueStore::F64(v) => Values::F64(v),
        }
    }

    fn capacity(&self) -> usize {
        each_width!(ValueStore, &self.0, v => v.capacity())
    }

    /// Bytes of heap the buffer holds.
    fn heap_bytes(&self) -> usize {
        each_width!(ValueStore, &self.0, v => heap(v))
    }

    fn reserve_exact(&mut self, values: usize) {
        each_width!(ValueStore, &mut self.0, v => v.reserve_exact(values))
    }

    fn shrink_to_fit(&mut self) {
        each_width!(ValueStore, &mut self.0, v => v.shrink_to_fit())
    }
}

impl Extend<f64> for ValueVec {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        values.into_iter().for_each(|v| self.push(v));
    }
}

impl FromIterator<f64> for ValueVec {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let values = values.into_iter();
        let mut out = ValueVec::with_capacity(values.size_hint().0);
        out.extend(values);
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

/// The cells of a chunk (or of a query result spanning several chunks), as
/// a structure of arrays: `n_dims` value coordinates per cell plus one
/// measure value.
///
/// Coordinates are value ids *at the chunk's group-by level* — a cell of a
/// chunk at level `(0, 2)` stores a level-0 id for dimension 0 and a level-2
/// id for dimension 1. They are held row-major at the narrowest [`Coord`]
/// width that fits them: `u16` from the start, widened in place to `u32`
/// the first time a pushed or appended coordinate passes [`NARROW_MAX`]
/// (or built at `u32` by a producer whose bounds may pass it,
/// [`ChunkData::from_raw`]). Values likewise are held at the narrowest
/// [`Value`] width they round-trip through exactly: `u16` from the start,
/// widened in place to `f32` or `f64` by the first pushed, appended or
/// written value that does not ([`ValueVec`]). On APB-1 every coordinate
/// fits, and nearly every value is a whole number that does, so a cell is
/// `2·dims + 2` bytes of heap. The widths are
/// invisible to `==`, which compares cells by value, and to
/// [`ChunkData::accounting_bytes`].
#[derive(Debug, Clone, Default)]
pub struct ChunkData {
    n_dims: usize,
    coords: CoordVec,
    values: ValueVec,
}

impl PartialEq for ChunkData {
    fn eq(&self, other: &Self) -> bool {
        self.n_dims == other.n_dims
            && self.raw_values() == other.raw_values()
            && self.raw_coords() == other.raw_coords()
    }
}

impl ChunkData {
    /// Creates an empty container for cells with `n_dims` coordinates.
    pub fn new(n_dims: usize) -> Self {
        Self {
            n_dims,
            coords: CoordVec::default(),
            values: ValueVec::default(),
        }
    }

    /// Creates an empty container with room for `cells` narrow cells.
    pub fn with_capacity(n_dims: usize, cells: usize) -> Self {
        Self {
            n_dims,
            coords: CoordVec::U16(Vec::with_capacity(cells * n_dims)),
            values: ValueVec::with_capacity(cells),
        }
    }

    /// Builds a container from parallel raw arrays, holding `coords` and
    /// `values` at their own widths.
    ///
    /// `coords.len()` must equal `values.len() * n_dims`.
    pub fn from_raw<C: Coord>(n_dims: usize, coords: Vec<C>, values: impl Into<ValueVec>) -> Self {
        let values = values.into();
        assert_eq!(coords.len(), values.len() * n_dims);
        C::chunk(n_dims, coords, values)
    }

    /// Number of coordinate slots per cell.
    #[inline]
    pub fn n_dims(&self) -> usize {
        self.n_dims
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

    /// Appends a cell — coordinates as a `u32` slice, array or vector, or
    /// read off another chunk — widening the container first if a
    /// coordinate or the value does not fit its width.
    #[inline]
    pub fn push<'c>(&mut self, coords: impl Into<Coords<'c>>, value: f64) {
        let coords = coords.into();
        debug_assert_eq!(coords.len(), self.n_dims);
        self.extend_coords(coords);
        self.values.push(value);
    }

    /// Appends `coords` to the coordinate array, widening it first if one
    /// does not fit. Copies by a plain loop: `extend_from_slice` of a
    /// runtime-length slice is a libc `memmove` call, which costs more
    /// than the few bytes of one cell.
    #[inline]
    fn extend_coords(&mut self, coords: Coords<'_>) {
        if let Coords::U32(c) = coords {
            if !fits_narrow(c) {
                self.widen();
            }
        }
        match (&mut self.coords, coords) {
            (CoordVec::U16(v), Coords::U16(c)) => v.extend(c.iter().copied()),
            (CoordVec::U16(v), Coords::U32(c)) => v.extend(c.iter().map(|&x| u16::from_u32(x))),
            (CoordVec::U32(v), Coords::U16(c)) => v.extend(c.iter().map(|&x| u32::from(x))),
            (CoordVec::U32(v), Coords::U32(c)) => v.extend(c.iter().copied()),
        }
    }

    /// Moves the coordinates to `u32`, keeping the capacity (a no-op when
    /// they are already there).
    fn widen(&mut self) {
        if let CoordVec::U16(narrow) = &self.coords {
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(|&c| u32::from(c)));
            self.coords = CoordVec::U32(wide);
        }
    }

    /// The coordinates of cell `i`.
    #[inline]
    pub fn coords_of(&self, i: usize) -> Coords<'_> {
        self.raw_coords()
            .slice(i * self.n_dims..(i + 1) * self.n_dims)
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
    /// [`ChunkData::raw_coords`] and [`ChunkData::raw_values`] instead,
    /// once per chunk.
    pub fn iter(&self) -> impl Iterator<Item = (Coords<'_>, f64)> + '_ {
        let values = self.raw_values();
        (0..self.len()).map(move |i| (self.coords_of(i), values.get(i)))
    }

    /// The flattened coordinate array (`len() * n_dims()` entries) at its
    /// width.
    #[inline]
    pub fn raw_coords(&self) -> Coords<'_> {
        match &self.coords {
            CoordVec::U16(c) => Coords::U16(c),
            CoordVec::U32(c) => Coords::U32(c),
        }
    }

    /// The measure array at its width.
    #[inline]
    pub fn raw_values(&self) -> Values<'_> {
        self.values.view()
    }

    /// Accounting size in bytes (paper convention: 20 bytes per tuple),
    /// whatever the widths.
    #[inline]
    pub fn accounting_bytes(&self) -> usize {
        self.len() * PAPER_TUPLE_BYTES
    }

    /// Actual in-memory payload size in bytes, at the widths held.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        let coords = match &self.coords {
            CoordVec::U16(c) => c.capacity() * std::mem::size_of::<u16>(),
            CoordVec::U32(c) => c.capacity() * std::mem::size_of::<u32>(),
        };
        coords + self.values.heap_bytes()
    }

    /// Makes room for exactly `cells` more cells at the current widths, so
    /// that appending parts whose total is known costs one allocation and
    /// leaves no slack.
    pub fn reserve_exact(&mut self, cells: usize) {
        match &mut self.coords {
            CoordVec::U16(c) => c.reserve_exact(cells * self.n_dims),
            CoordVec::U32(c) => c.reserve_exact(cells * self.n_dims),
        }
        self.values.reserve_exact(cells);
    }

    /// Appends all cells of `other` (same arity required).
    pub fn append(&mut self, other: &ChunkData) {
        self.extend_from(other, 0..other.len());
    }

    /// Appends cells `cells` of `src` (same arity required).
    pub fn extend_from(&mut self, src: &ChunkData, cells: Range<usize>) {
        assert_eq!(self.n_dims, src.n_dims, "arity mismatch");
        let n = self.n_dims;
        self.extend_coords(src.raw_coords().slice(cells.start * n..cells.end * n));
        self.values.extend_from_view(src.raw_values().slice(cells));
    }

    /// Sorts cells lexicographically by coordinates (for deterministic
    /// comparison in tests and stable output), in place: the order is
    /// sorted as a `u32` index, then applied cycle by cycle inside the
    /// cell arrays, so the only extra memory is the index (4 bytes a cell).
    pub fn sort_by_coords(&mut self) {
        let d = self.n_dims;
        each_width!(ValueStore, &mut self.values.0, values => sort_at(&mut self.coords, values, d))
    }

    /// Shrinks the backing buffers to fit (cached chunks are immutable once
    /// built, so excess capacity is pure waste).
    pub fn shrink_to_fit(&mut self) {
        match &mut self.coords {
            CoordVec::U16(c) => c.shrink_to_fit(),
            CoordVec::U32(c) => c.shrink_to_fit(),
        }
        self.values.shrink_to_fit();
    }
}

/// [`ChunkData::sort_by_coords`] at one value width.
fn sort_at<V: Value>(coords: &mut CoordVec, values: &mut [V], d: usize) {
    match coords {
        CoordVec::U16(c) => sort_cells(c, values, d),
        CoordVec::U32(c) => sort_cells(c, values, d),
    }
}

/// [`ChunkData::sort_by_coords`] at one pair of widths.
fn sort_cells<C: Coord, V: Value>(coords: &mut [C], values: &mut [V], d: usize) {
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
        matches!(d.raw_coords(), Coords::U32(_))
    }

    fn has_wide_values(d: &ChunkData) -> bool {
        matches!(d.raw_values(), Values::F64(_))
    }

    /// Bytes a value takes at `d`'s value width.
    fn value_bytes(d: &ChunkData) -> usize {
        match d.raw_values() {
            Values::U16(_) => 2,
            Values::F32(_) => 4,
            Values::F64(_) => 8,
        }
    }

    /// `cells` pushed into a fresh (narrow) container, and the same cells
    /// built at `u32` and `f64`.
    fn both_widths(d: usize, cells: &[(Vec<u32>, f64)]) -> (ChunkData, ChunkData) {
        let mut narrow = ChunkData::new(d);
        for (coords, value) in cells {
            narrow.push(coords, *value);
        }
        let coords: Vec<u32> = cells.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        let values: Vec<f64> = cells.iter().map(|&(_, v)| v).collect();
        (narrow, ChunkData::from_raw(d, coords, values))
    }

    /// Values whose bits `f32` does not keep: one rounded, one integer past
    /// 2²⁴, one `f64` subnormal and one NaN payload.
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

    #[test]
    fn a_narrow_cell_costs_two_bytes_a_coordinate() {
        let mut d = ChunkData::with_capacity(5, 10);
        for i in 0..10 {
            d.push(&[i, 1, 2, 3, NARROW_MAX], 1.0);
        }
        assert!(!is_wide(&d) && value_bytes(&d) == 2);
        assert_eq!(d.heap_bytes(), 10 * (2 * 5 + 2));
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

    #[test]
    fn append_widens_only_when_a_coordinate_does_not_fit() {
        let (narrow, wide_small) = both_widths(1, &[(vec![5], 1.0), (vec![6], 2.0)]);
        let mut a = narrow.clone();
        a.append(&wide_small);
        assert!(!is_wide(&a), "u32 cells that fit stay narrow");
        let mut big = ChunkData::new(1);
        big.push(&[1 << 16], 3.0);
        a.append(&big);
        assert!(is_wide(&a));
        a.append(&narrow);
        let got: Vec<Vec<u32>> = a.iter().map(|(c, _)| c.to_vec()).collect();
        assert_eq!(got, [[5], [6], [5], [6], [1 << 16], [5], [6]]);
        let mut b = ChunkData::new(1);
        b.extend_from(&a, 3..5);
        assert_eq!(b.raw_values().to_vec(), [2.0, 3.0]);
        assert_eq!(b.coords_of(1), [1 << 16]);
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
            prop_assert_eq!(data.raw_coords().to_vec(), want);
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
            prop_assert_eq!(
                narrow.heap_bytes() + (2 * d + 8 - value_bytes(&narrow)) * cells.len(),
                wide.heap_bytes()
            );
            // Distinct cells sort to one order; equal ones carry their
            // value, so compare the multiset after the sort.
            narrow.sort_by_coords();
            wide.sort_by_coords();
            prop_assert_eq!(narrow.raw_coords(), wide.raw_coords());
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

    /// The value analogue: an `f32` and an `f64` chunk holding the same
    /// cells (values `f32` keeps exactly, `-0.0` and `±∞` among them), and
    /// one collected at the narrowest width, are equal, iterate alike,
    /// sort alike and differ in heap by the value widths; a changed value
    /// breaks equality.
    #[test]
    fn the_two_value_widths_hold_the_same_cells(
        cells in (1usize..=4).prop_flat_map(|d| {
            let value = prop_oneof![
                (0u32..2000).prop_map(|v| f64::from(v) - 1000.0),
                (0u32..2000).prop_map(f64::from),
                (-1e3f64..1e3).prop_map(|v| f64::from(v as f32)),
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
        let singles: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let mut single = ChunkData::from_raw(d, coords.clone(), singles);
        let mut narrow = ChunkData::from_raw(d, coords, values.iter().copied().collect::<ValueVec>());
        prop_assert!(!has_wide_values(&narrow) && has_wide_values(&wide));
        let whole = values.iter().all(|&v| v.fract() == 0.0 && (0.0..=65_535.0).contains(&v)
            && v.is_sign_positive());
        prop_assert_eq!(value_bytes(&narrow), if whole { 2 } else { 4 });
        let bits = |d: &ChunkData| d.raw_values().iter().map(f64::to_bits).collect::<Vec<_>>();
        let key = |d: &ChunkData| {
            let mut cells: Vec<_> = d.iter().map(|(c, v)| (c.to_vec(), v.to_bits())).collect();
            cells.sort_unstable();
            cells
        };
        for other in [&mut single, &mut narrow] {
            prop_assert_eq!(&*other, &wide);
            prop_assert!(other.iter().eq(wide.iter()));
            prop_assert_eq!(bits(other), bits(&wide));
            other.shrink_to_fit();
        }
        wide.shrink_to_fit();
        prop_assert_eq!(single.heap_bytes() + 4 * cells.len(), wide.heap_bytes());
        prop_assert_eq!(
            narrow.heap_bytes() + (8 - value_bytes(&narrow)) * cells.len(),
            wide.heap_bytes()
        );
        wide.sort_by_coords();
        for other in [&mut single, &mut narrow] {
            other.sort_by_coords();
            prop_assert_eq!(other.raw_coords(), wide.raw_coords());
            prop_assert_eq!(key(other), key(&wide));
        }
        let mut other = narrow.clone();
        let changed = if other.value_of(0) == 7.0 { 8.0 } else { 7.0 };
        *other.value_of_mut(0) = changed;
        prop_assert_ne!(&other, &wide);
    }
    }

    #[test]
    fn values_that_f32_keeps_stay_narrow() {
        let mut d = ChunkData::new(1);
        for v in [
            1.0,
            -0.0,
            1000.0,
            16_777_216.0,
            f64::INFINITY,
            f64::NAN,
            0.5,
        ] {
            d.push(&[0], v);
        }
        assert!(!has_wide_values(&d));
        let bits: Vec<u64> = d.raw_values().iter().map(f64::to_bits).collect();
        assert_eq!(bits[1], (-0.0f64).to_bits());
        assert_eq!(bits[5], f64::NAN.to_bits());
        *d.value_of_mut(0) = 2.0;
        assert!(
            !has_wide_values(&d),
            "a written value that fits stays narrow"
        );
        assert_eq!(d.value_of(0), 2.0);
    }

    /// Every way a value enters a chunk widens it on a value `f32` would
    /// change, keeps the capacity, and keeps every value's bits.
    #[test]
    fn each_entry_widens_on_a_value_f32_does_not_keep() {
        for wide in WIDE_VALUES {
            let narrow_cells = || {
                let mut d = ChunkData::with_capacity(1, 4);
                d.push(&[0], 1.0);
                d.push(&[1], 2.5);
                d
            };
            let mut source = ChunkData::new(1);
            source.push(&[7], wide);
            assert!(has_wide_values(&source), "push of {wide:e}");
            let want = [1.0f64.to_bits(), 2.5f64.to_bits(), wide.to_bits()];
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

            let collected: ValueVec = [1.0, 2.5, wide].into_iter().collect();
            check(
                &ChunkData::from_raw(1, vec![0u16, 1, 7], collected),
                "collect",
            );
        }
    }

    /// Whole numbers from 0 to 65,535 stay at `u16`, two bytes a value;
    /// `-0.0`, a fraction, 65,536 and a negative number each widen the
    /// buffer to `f32`, every bit kept.
    #[test]
    fn whole_numbers_stay_at_u16() {
        let mut d = ChunkData::with_capacity(1, 8);
        for v in [0.0, 1.0, 1000.0, 65_535.0] {
            d.push(&[0], v);
        }
        assert_eq!(value_bytes(&d), 2);
        assert_eq!(d.heap_bytes(), 8 * (2 + 2));
        *d.value_of_mut(0) = 7.0;
        assert_eq!(value_bytes(&d), 2, "a written value that fits stays narrow");
        for v in [-0.0, 0.5, 65_536.0, -1.0] {
            let mut e = d.clone();
            e.push(&[1], v);
            assert_eq!(value_bytes(&e), 4, "{v:e}");
            let bits: Vec<u64> = e.raw_values().iter().map(f64::to_bits).collect();
            let want: Vec<u64> = [7.0, 1.0, 1000.0, 65_535.0, v].map(f64::to_bits).to_vec();
            assert_eq!(bits, want, "{v:e}");
        }
    }

    /// A value `f32` does not keep widens a `u16` buffer straight to
    /// `f64`, keeping its capacity.
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

    /// Values on every width's edge: whole numbers `u16` holds, `-0.0`,
    /// 65,535, 65,536, `0.5`, a negative whole number, a NaN `f32` keeps,
    /// values exact only in `f64`, and NaN payloads.
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
            } else if f64::from(v as f32).to_bits() == v.to_bits() {
                4
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

    #[test]
    fn a_wide_source_whose_values_fit_appends_narrow() {
        let wide = ChunkData::from_raw(1, vec![0u16, 1], vec![1.0, -0.0]);
        assert!(has_wide_values(&wide));
        let mut d = ChunkData::new(1);
        d.append(&wide);
        assert!(!has_wide_values(&d));
        assert_eq!(d, wide);
        assert_eq!(d.value_of(1).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn value_views_compare_by_value_across_widths() {
        assert_eq!(Values::F32(&[1.0, 2.0]), Values::F64(&[1.0, 2.0]));
        assert_eq!(Values::U16(&[1, 2]), Values::F32(&[1.0, 2.0]));
        assert_eq!(Values::U16(&[1, 2]), Values::F64(&[1.0, 2.0]));
        assert_ne!(Values::U16(&[1, 2]), Values::F64(&[1.0, 2.5]));
        assert_eq!(
            Values::U16(&[0]),
            Values::F64(&[-0.0]),
            "zeros are equal by value"
        );
        assert_eq!(format!("{:?}", Values::U16(&[7])), "[7.0]");
        assert_ne!(Values::F32(&[1.0, 2.0]), Values::F64(&[1.0, 0.1]));
        assert_ne!(Values::F32(&[1.0]), Values::F64(&[1.0, 2.0]));
        assert_ne!(
            Values::F32(&[f32::NAN]),
            Values::F64(&[f64::NAN]),
            "NaN is never equal"
        );
        assert_eq!(format!("{:?}", Values::F32(&[1.5])), "[1.5]");
    }

    #[test]
    fn views_compare_by_value_across_widths() {
        let narrow = Coords::U16(&[1, 2]);
        let wide = Coords::U32(&[1, 2]);
        assert_eq!(narrow, wide);
        assert_ne!(narrow, Coords::U32(&[1, 70_000]));
        assert_ne!(narrow, Coords::U32(&[1, 2, 3]));
        let hash = |c: Coords| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(narrow), hash(wide));
        assert_eq!(format!("{narrow:?}"), "[1, 2]");
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
