//! The flat **func-image** format (paper §3.1–§3.2).
//!
//! A func-image is *well-formed*: uncompressed, page-aligned, and directly
//! `mmap`-able. It holds:
//!
//! - a **metadata arena** of partially deserialized guest-kernel objects —
//!   records laid out in their in-memory shape with every pointer slot
//!   zeroed to a placeholder;
//! - a **relation table** mapping `(record, pointer slot) → target object`,
//!   used by stage 2 of separated state recovery to re-establish pointers
//!   (each patch is independent, so stage 2 runs on parallel workers and the
//!   clock is charged the critical path);
//! - an **I/O manifest** of connections to re-establish (lazily, §3.3);
//! - the **application memory pages**, page-aligned so the Base-EPT can
//!   reference them lazily without any copy.
//!
//! Restore therefore never pays per-object deserialization: stage 1 is a
//! mapping (page-cache touches of the metadata sections), stage 2 is pointer
//! patching. This is the mechanism behind the paper's 7× "kernel loading"
//! reduction in Figure 12.

use std::sync::Arc;

use bytes::Bytes;
use memsim::{EptEntry, EptLayer, MappedImage, Vpn, PAGE_SIZE, PAGE_SIZE_U64};
use simtime::{CostModel, SimClock};

use crate::record::REF_PLACEHOLDER;
use crate::varint::{read_u16_le, read_u32_le, read_u64_le};
use crate::{classic, crc32, CheckpointSource, ImageError, IoConn, ObjKind, ObjRecord};

const MAGIC: &[u8; 4] = b"FUNC";
const VERSION: u32 = 1;
/// Fixed record header: id(8) kind(2) flags(4) nrefs(2) payload_len(4).
const REC_HEADER: usize = 20;
/// Relation-table entry: record index(4) slot(2) target(8).
const REL_ENTRY: usize = 14;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Section {
    offset: u64,
    len: u64,
    crc: u32,
}

/// The six sections of a func-image, in on-disk header order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sections {
    meta_index: Section,
    meta_arena: Section,
    rel_table: Section,
    io_manifest: Section,
    appmem_index: Section,
    appmem_pages: Section,
}

impl Sections {
    /// Header serialization order.
    fn in_order(&self) -> [Section; 6] {
        [
            self.meta_index,
            self.meta_arena,
            self.rel_table,
            self.io_manifest,
            self.appmem_index,
            self.appmem_pages,
        ]
    }
}

// Writer-side narrowing helpers. Checkpoint structures live in memory, so
// the saturating fallback is unreachable in practice; `try_from` keeps this
// parse module free of lossy `as` casts without panicking (catalint bans
// both file-wide).
fn w64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
fn w32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}
fn w16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Appends one section to `body` via `fill`, page-aligning its start if
/// asked, and CRCs it in place.
fn place(body: &mut Vec<u8>, align_page: bool, fill: impl FnOnce(&mut Vec<u8>)) -> Section {
    if align_page {
        body.resize(body.len().next_multiple_of(PAGE_SIZE), 0);
    }
    let start = body.len();
    fill(body);
    let bytes = body.get(start..).unwrap_or_default();
    Section {
        offset: w64(start),
        len: w64(bytes.len()),
        crc: crc32(bytes),
    }
}

/// Writes a func-image (the offline func-image *compilation* step, §5).
///
/// One pass: the body is sized up front from the section lengths and every
/// section — app pages included — is copied straight into it and CRC'd
/// where it lands. Charges per-object encode plus bulk copy costs — all off
/// the startup critical path.
pub fn write(src: &CheckpointSource, clock: &SimClock, model: &CostModel) -> Bytes {
    let record_len = |obj: &ObjRecord| REC_HEADER + obj.refs.len() * 8 + obj.payload.len();
    let arena_len: usize = src.objects.iter().map(record_len).sum();
    let slots: usize = src.objects.iter().map(|obj| obj.refs.len()).sum();

    // I/O manifest (same wire encoding as the classic format); small.
    let mut manifest = Vec::new();
    crate::varint::put_u64(&mut manifest, w64(src.io_conns.len()));
    for conn in &src.io_conns {
        classic::encode_conn(&mut manifest, conn);
    }

    let metadata_end = PAGE_SIZE
        + src.objects.len() * 8
        + arena_len
        + slots * REL_ENTRY
        + manifest.len()
        + src.app_pages.len() * 8;
    let image_len = (metadata_end.next_multiple_of(PAGE_SIZE) + src.app_pages.len() * PAGE_SIZE)
        .next_multiple_of(PAGE_SIZE);
    let mut body = Vec::with_capacity(image_len);
    body.resize(PAGE_SIZE, 0); // reserve the header page

    let sections = Sections {
        meta_index: place(&mut body, false, |body| {
            let mut offset = 0;
            for obj in &src.objects {
                body.extend_from_slice(&w64(offset).to_le_bytes());
                offset += record_len(obj);
            }
        }),
        meta_arena: place(&mut body, false, |body| {
            for obj in &src.objects {
                assert!(
                    obj.refs.len() <= usize::from(u16::MAX),
                    "too many pointer slots"
                );
                body.extend_from_slice(&obj.id.to_le_bytes());
                body.extend_from_slice(&obj.kind.code().to_le_bytes());
                body.extend_from_slice(&obj.flags.to_le_bytes());
                body.extend_from_slice(&w16(obj.refs.len()).to_le_bytes());
                body.extend_from_slice(&w32(obj.payload.len()).to_le_bytes());
                // Zeroed placeholders in the arena; the truth goes into the
                // relation table.
                for _ in &obj.refs {
                    body.extend_from_slice(&REF_PLACEHOLDER.to_le_bytes());
                }
                body.extend_from_slice(&obj.payload);
            }
        }),
        rel_table: place(&mut body, false, |body| {
            for (rec_idx, obj) in src.objects.iter().enumerate() {
                for (slot, target) in obj.refs.iter().enumerate() {
                    body.extend_from_slice(&w32(rec_idx).to_le_bytes());
                    body.extend_from_slice(&w16(slot).to_le_bytes());
                    body.extend_from_slice(&target.to_le_bytes());
                }
            }
        }),
        io_manifest: place(&mut body, false, |body| body.extend_from_slice(&manifest)),
        appmem_index: place(&mut body, false, |body| {
            for page in &src.app_pages {
                body.extend_from_slice(&page.vpn.to_le_bytes());
            }
        }),
        // Page-aligned so the Base-EPT references the pages in place.
        appmem_pages: place(&mut body, true, |body| {
            for page in &src.app_pages {
                assert_eq!(page.data.len(), PAGE_SIZE, "app pages must be page-sized");
                body.extend_from_slice(&page.data);
            }
        }),
    };
    // Pad the tail to a whole page so the image itself is well-formed.
    body.resize(body.len().next_multiple_of(PAGE_SIZE), 0);
    debug_assert_eq!(body.len(), image_len, "func-image sized up front");

    // --- header page ---
    let mut header = Vec::with_capacity(PAGE_SIZE);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&w64(src.objects.len()).to_le_bytes());
    header.extend_from_slice(&w64(src.app_pages.len()).to_le_bytes());
    for s in sections.in_order() {
        header.extend_from_slice(&s.offset.to_le_bytes());
        header.extend_from_slice(&s.len.to_le_bytes());
        header.extend_from_slice(&s.crc.to_le_bytes());
    }
    assert!(header.len() <= PAGE_SIZE, "header must fit one page");
    if let Some(dst) = body.get_mut(..header.len()) {
        dst.copy_from_slice(&header);
    }

    clock.charge(
        model
            .obj
            .encode_per_object
            .saturating_mul(w64(src.objects.len())),
    );
    clock.charge(model.memcpy(w64(body.len())));
    Bytes::from(body)
}

/// A parsed func-image handle: cheap header view over a [`MappedImage`].
#[derive(Debug)]
pub struct FlatImage {
    image: Arc<MappedImage>,
    sections: Sections,
    n_objects: u64,
    n_pages: u64,
}

impl FlatImage {
    /// Parses the header page. Charges one page touch (the header) plus the
    /// `mmap` of the image region — nothing else; every section stays lazy.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on bad magic/version or out-of-bounds sections.
    pub fn parse(
        image: &Arc<MappedImage>,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<FlatImage, ImageError> {
        clock.charge(model.mmap_region(image.len()));
        let header = image
            .load_page(0, clock, model)
            .map_err(|_| ImageError::Truncated {
                what: "flat header",
            })?;
        let buf = header.bytes();
        if buf.get(0..4) != Some(MAGIC.as_slice()) {
            return Err(ImageError::BadMagic);
        }
        let mut pos = 4usize;
        let version = read_u32_le(buf, &mut pos, "flat header")?;
        if version != VERSION {
            return Err(ImageError::BadVersion { found: version });
        }
        let n_objects = read_u64_le(buf, &mut pos, "flat header")?;
        let n_pages = read_u64_le(buf, &mut pos, "flat header")?;
        let image_ceiling = image.len().next_multiple_of(PAGE_SIZE_U64);
        let read_section = |pos: &mut usize| -> Result<Section, ImageError> {
            let offset = read_u64_le(buf, pos, "flat section header")?;
            let len = read_u64_le(buf, pos, "flat section header")?;
            let crc = read_u32_le(buf, pos, "flat section header")?;
            let end = offset.checked_add(len).ok_or(ImageError::BadSection {
                section: "flat section",
            })?;
            if end > image_ceiling {
                return Err(ImageError::BadSection {
                    section: "flat section",
                });
            }
            Ok(Section { offset, len, crc })
        };
        let sections = Sections {
            meta_index: read_section(&mut pos)?,
            meta_arena: read_section(&mut pos)?,
            rel_table: read_section(&mut pos)?,
            io_manifest: read_section(&mut pos)?,
            appmem_index: read_section(&mut pos)?,
            appmem_pages: read_section(&mut pos)?,
        };
        Ok(FlatImage {
            image: Arc::clone(image),
            sections,
            n_objects,
            n_pages,
        })
    }

    /// The backing image.
    pub fn image(&self) -> &Arc<MappedImage> {
        &self.image
    }

    /// Number of metadata objects.
    pub fn object_count(&self) -> u64 {
        self.n_objects
    }

    /// Number of application memory pages.
    pub fn app_page_count(&self) -> u64 {
        self.n_pages
    }

    /// Size of the metadata sections (index + arena + relation table), i.e.
    /// Table 3's "Metadata Objects" column.
    pub fn metadata_bytes(&self) -> u64 {
        self.sections.meta_index.len + self.sections.meta_arena.len + self.sections.rel_table.len
    }

    /// Size of the I/O manifest section.
    pub fn io_manifest_bytes(&self) -> u64 {
        self.sections.io_manifest.len
    }

    /// Reads a whole section through the page cache, charging page touches.
    fn section_bytes(
        &self,
        s: Section,
        name: &'static str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Bytes, ImageError> {
        let end64 = s
            .offset
            .checked_add(s.len)
            .ok_or(ImageError::BadSection { section: name })?;
        let start =
            usize::try_from(s.offset).map_err(|_| ImageError::BadSection { section: name })?;
        let end = usize::try_from(end64).map_err(|_| ImageError::BadSection { section: name })?;
        if end > self.image.raw_bytes().len() {
            return Err(ImageError::BadSection { section: name });
        }
        // Touch the section via the shared page cache with readahead: disk
        // is charged once globally; the per-space fault cost is charged here.
        let first_page = s.offset / PAGE_SIZE_U64;
        let last_page = end64.div_ceil(PAGE_SIZE_U64);
        self.image
            .load_range(
                first_page,
                last_page.saturating_sub(first_page),
                clock,
                model,
            )
            .map_err(|_| ImageError::Truncated { what: name })?;
        clock.charge(
            model
                .mem
                .page_fault
                .saturating_mul(last_page.saturating_sub(first_page)),
        );
        let bytes = self.image.raw_bytes().slice(start..end);
        if crc32(&bytes) != s.crc {
            return Err(ImageError::Checksum { section: name });
        }
        clock.charge(model.memcpy(w64(bytes.len()))); // checksum pass
        Ok(bytes)
    }

    /// **Separated state recovery** (§3.2): stage 1 maps the metadata arena
    /// (no per-object decode); stage 2 re-establishes pointer relations from
    /// the relation table on `model.parallel_workers` real threads, charging
    /// the critical path.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on corrupt sections, malformed records, dangling
    /// relation entries, or placeholders left unpatched.
    pub fn restore_metadata(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Vec<ObjRecord>, ImageError> {
        // Stage 1: map.
        let index = self.section_bytes(self.sections.meta_index, "meta index", clock, model)?;
        let arena = self.section_bytes(self.sections.meta_arena, "meta arena", clock, model)?;
        let rel = self.section_bytes(self.sections.rel_table, "relation table", clock, model)?;

        let n_objects = usize::try_from(self.n_objects).map_err(|_| ImageError::Malformed {
            what: "object count",
        })?;
        let want = n_objects.checked_mul(8).ok_or(ImageError::Malformed {
            what: "object count",
        })?;
        if index.len() != want {
            return Err(ImageError::Truncated { what: "meta index" });
        }
        // Bounded by the (already size-checked) index section itself.
        let mut objects = Vec::with_capacity(n_objects);
        for entry in index.chunks_exact(8) {
            let mut p = 0usize;
            let off = usize::try_from(read_u64_le(entry, &mut p, "meta index")?).map_err(|_| {
                ImageError::Malformed {
                    what: "meta index entry",
                }
            })?;
            objects.push(parse_arena_record(&arena, off)?);
        }

        // Stage 2: parallel pointer re-establishment.
        if rel.len() % REL_ENTRY != 0 {
            return Err(ImageError::Truncated {
                what: "relation table",
            });
        }
        let entries: Vec<(u32, u16, u64)> = rel
            .chunks_exact(REL_ENTRY)
            .map(|c| {
                let mut p = 0usize;
                Ok((
                    read_u32_le(c, &mut p, "relation entry")?,
                    read_u16_le(c, &mut p, "relation entry")?,
                    read_u64_le(c, &mut p, "relation entry")?,
                ))
            })
            .collect::<Result<_, ImageError>>()?;
        // Entries are ordered by record index (the writer emits them that
        // way), so contiguous record chunks get contiguous entry ranges.
        let workers = model.parallel_workers.max(1);
        let chunk_len = objects.len().div_ceil(workers).max(1);
        let mut failed = false;
        let mut worker_costs = Vec::with_capacity(workers);
        let scope_result = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut rest: &mut [ObjRecord] = &mut objects;
            let mut rec_base = 0usize;
            let mut entry_pos = 0usize;
            while !rest.is_empty() {
                let take = chunk_len.min(rest.len());
                let (chunk, tail) = rest.split_at_mut(take);
                rest = tail;
                let rec_end = rec_base + take;
                let entry_start = entry_pos;
                while entries
                    .get(entry_pos)
                    .is_some_and(|e| usize::try_from(e.0).is_ok_and(|r| r < rec_end))
                {
                    entry_pos += 1;
                }
                let my_entries = entries.get(entry_start..entry_pos).unwrap_or(&[]);
                let base = rec_base;
                handles.push(scope.spawn(move |_| {
                    let mut ok = true;
                    for &(rec, slot, target) in my_entries {
                        let Ok(rec) = usize::try_from(rec) else {
                            ok = false;
                            continue;
                        };
                        if rec < base {
                            ok = false;
                            continue;
                        }
                        match chunk
                            .get_mut(rec - base)
                            .and_then(|r| r.refs.get_mut(usize::from(slot)))
                        {
                            Some(r) => *r = target,
                            None => ok = false,
                        }
                    }
                    (ok, w64(my_entries.len()))
                }));
                rec_base = rec_end;
            }
            for h in handles {
                match h.join() {
                    Ok((ok, n)) => {
                        if !ok {
                            failed = true;
                        }
                        worker_costs.push(model.obj.fixup_per_pointer.saturating_mul(n));
                    }
                    Err(_) => failed = true,
                }
            }
        });
        if scope_result.is_err() {
            failed = true;
        }
        clock.charge_parallel(worker_costs);
        if failed {
            return Err(ImageError::BadRelation { record: 0, slot: 0 });
        }
        // Totality: no placeholder may survive stage 2.
        for (i, obj) in objects.iter().enumerate() {
            if let Some(slot) = obj.refs.iter().position(|&r| r == REF_PLACEHOLDER) {
                return Err(ImageError::BadRelation {
                    record: u32::try_from(i).unwrap_or(u32::MAX),
                    slot: u16::try_from(slot).unwrap_or(u16::MAX),
                });
            }
        }
        Ok(objects)
    }

    /// Reads the I/O manifest (cheap; the manifest is tiny — Table 3 shows
    /// 370 B–2.4 KB of cached connections).
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt manifest section.
    pub fn read_io_manifest(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Vec<IoConn>, ImageError> {
        let bytes = self.section_bytes(self.sections.io_manifest, "io manifest", clock, model)?;
        let mut pos = 0usize;
        let n = usize::try_from(crate::varint::get_u64(&bytes, &mut pos)?).map_err(|_| {
            ImageError::Malformed {
                what: "io manifest count",
            }
        })?;
        // Every connection takes at least one byte, so a count larger than
        // the section is already known-bad; the cap keeps a forged count
        // from pre-allocating unbounded memory.
        let mut conns = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            conns.push(classic::decode_conn(&bytes, &mut pos)?);
        }
        Ok(conns)
    }

    /// Reads the `(vpn → image page)` application-memory index.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt index section.
    pub fn app_mem_index(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Vec<(Vpn, u64)>, ImageError> {
        let bytes = self.section_bytes(self.sections.appmem_index, "appmem index", clock, model)?;
        let n_pages = usize::try_from(self.n_pages).map_err(|_| ImageError::Malformed {
            what: "appmem page count",
        })?;
        let want = n_pages.checked_mul(8).ok_or(ImageError::Malformed {
            what: "appmem page count",
        })?;
        if bytes.len() != want {
            return Err(ImageError::Truncated {
                what: "appmem index",
            });
        }
        let pages_base = self.sections.appmem_pages.offset / PAGE_SIZE_U64;
        let mut out = Vec::with_capacity(n_pages);
        for (i, c) in bytes.chunks_exact(8).enumerate() {
            let mut p = 0usize;
            let vpn = read_u64_le(c, &mut p, "appmem index")?;
            let page = pages_base
                .checked_add(w64(i))
                .ok_or(ImageError::Malformed {
                    what: "appmem page offset",
                })?;
            out.push((vpn, page));
        }
        Ok(out)
    }

    /// Builds the shared **Base-EPT** over this image's application memory:
    /// every checkpointed page becomes a lazy, demand-loaded entry (the
    /// *map-file* operation of overlay memory, §3.1). No page is read.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a corrupt appmem index.
    pub fn build_base_layer(
        &self,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<Arc<EptLayer>, ImageError> {
        let index = self.app_mem_index(clock, model)?;
        clock.charge(model.mmap_region(self.n_pages.saturating_mul(PAGE_SIZE_U64)));
        let layer = EptLayer::new();
        for (vpn, page) in index {
            layer.insert(
                vpn,
                EptEntry::LazyImage {
                    image: Arc::clone(&self.image),
                    page,
                },
            );
        }
        Ok(Arc::new(layer))
    }
}

/// Parses one record out of the mapped metadata arena. The payload is a
/// zero-copy [`Bytes`] view into the arena — stage 1 of separated state
/// recovery maps object fields, it never duplicates them (§3.2).
fn parse_arena_record(arena: &Bytes, off: usize) -> Result<ObjRecord, ImageError> {
    let mut pos = off;
    let id = read_u64_le(arena, &mut pos, "arena record")?;
    let code = read_u16_le(arena, &mut pos, "arena record")?;
    let kind = ObjKind::from_code(code).ok_or(ImageError::BadObjKind { code })?;
    let flags = read_u32_le(arena, &mut pos, "arena record")?;
    let n_refs = usize::from(read_u16_le(arena, &mut pos, "arena record")?);
    let payload_len =
        usize::try_from(read_u32_le(arena, &mut pos, "arena record")?).map_err(|_| {
            ImageError::Malformed {
                what: "arena payload length",
            }
        })?;
    debug_assert_eq!(pos, off + REC_HEADER);
    let refs_end = pos
        .checked_add(
            n_refs
                .checked_mul(8)
                .ok_or(ImageError::Malformed { what: "arena refs" })?,
        )
        .ok_or(ImageError::Malformed { what: "arena refs" })?;
    let end = refs_end
        .checked_add(payload_len)
        .ok_or(ImageError::Malformed {
            what: "arena payload length",
        })?;
    if end > arena.len() {
        return Err(ImageError::Truncated {
            what: "arena record body",
        });
    }
    let refs = arena
        .get(pos..refs_end)
        .ok_or(ImageError::Truncated {
            what: "arena record refs",
        })?
        .chunks_exact(8)
        .map(|c| {
            let mut p = 0usize;
            read_u64_le(c, &mut p, "arena ref")
        })
        .collect::<Result<_, ImageError>>()?;
    Ok(ObjRecord {
        id,
        kind,
        flags,
        refs,
        payload: arena.slice(refs_end..end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagePayload;
    use simtime::SimNanos;

    fn sample_source(n_objects: u64, n_pages: u64) -> CheckpointSource {
        CheckpointSource {
            objects: (0..n_objects)
                .map(|i| {
                    ObjRecord::new(
                        i + 1,
                        ObjKind::ALL[(i % 14) as usize],
                        i as u32,
                        (0..(i % 4)).map(|k| (i + k) % n_objects + 1).collect(),
                        vec![(i % 251) as u8; (i % 40) as usize],
                    )
                })
                .collect(),
            app_pages: (0..n_pages)
                .map(|i| PagePayload {
                    vpn: 0x4_0000 + i,
                    data: Bytes::from(vec![(i % 255) as u8; PAGE_SIZE]),
                })
                .collect(),
            io_conns: vec![
                IoConn::file("/app/rootfs/lib.so", true),
                IoConn::file("/home/user/hello.txt", false),
                IoConn::socket("0.0.0.0:80", true),
            ],
        }
    }

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    fn make_image(src: &CheckpointSource) -> Arc<MappedImage> {
        let bytes = write(src, &SimClock::new(), &CostModel::experimental_machine());
        MappedImage::new("func.img", bytes)
    }

    #[test]
    fn metadata_round_trip_identity() {
        let (clock, model) = setup();
        let src = sample_source(500, 8);
        let img = make_image(&src);
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        assert_eq!(flat.object_count(), 500);
        assert_eq!(flat.app_page_count(), 8);
        let objects = flat.restore_metadata(&clock, &model).unwrap();
        assert_eq!(objects, src.objects);
    }

    #[test]
    fn io_manifest_round_trips() {
        let (clock, model) = setup();
        let src = sample_source(10, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert_eq!(flat.read_io_manifest(&clock, &model).unwrap(), src.io_conns);
    }

    #[test]
    fn app_pages_restore_through_base_layer() {
        let (clock, model) = setup();
        let src = sample_source(5, 4);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        let base = flat.build_base_layer(&clock, &model).unwrap();
        assert_eq!(base.len(), 4);
        assert_eq!(base.present_pages(), 0, "map-file must not populate");
        // Demand-load one page and compare contents.
        let frame = base.materialize(0x4_0002, &clock, &model).unwrap().unwrap();
        assert_eq!(frame.bytes(), &src.app_pages[2].data[..]);
    }

    #[test]
    fn flat_restore_cheaper_than_classic_for_many_objects() {
        let model = CostModel::experimental_machine();
        let src = sample_source(20_000, 0);

        let classic_img = classic::write(&src, &SimClock::new(), &model);
        let classic_clock = SimClock::new();
        classic::read(&classic_img, &classic_clock, &model).unwrap();

        let img = make_image(&src);
        let flat_clock = SimClock::new();
        let flat = FlatImage::parse(&img, &flat_clock, &model).unwrap();
        let objs = flat.restore_metadata(&flat_clock, &model).unwrap();
        assert_eq!(objs.len(), 20_000);

        assert!(
            flat_clock.now().saturating_mul(3) < classic_clock.now(),
            "flat {} vs classic {}",
            flat_clock.now(),
            classic_clock.now()
        );
    }

    #[test]
    fn parse_is_cheap_and_lazy() {
        let model = CostModel::experimental_machine();
        let src = sample_source(10_000, 64);
        let img = make_image(&src);
        let clock = SimClock::new();
        let _flat = FlatImage::parse(&img, &clock, &model).unwrap();
        // Only the header page's readahead cluster (+ mmap) may be touched.
        assert!(
            img.resident_pages() <= 8,
            "resident {}",
            img.resident_pages()
        );
        assert!(
            clock.now() < SimNanos::from_millis(2),
            "parse cost {}",
            clock.now()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let (clock, model) = setup();
        let mut bytes = write(&sample_source(3, 0), &clock, &model).to_vec();
        bytes[0] = b'Z';
        let img = MappedImage::new("bad", Bytes::from(bytes));
        assert_eq!(
            FlatImage::parse(&img, &clock, &model).unwrap_err(),
            ImageError::BadMagic
        );
    }

    #[test]
    fn corrupt_arena_fails_checksum() {
        let (clock, model) = setup();
        let src = sample_source(50, 0);
        let mut bytes = write(&src, &clock, &model).to_vec();
        // Flip a byte beyond the header page (inside the metadata sections).
        bytes[PAGE_SIZE + 100] ^= 0xFF;
        let img = MappedImage::new("corrupt", Bytes::from(bytes));
        let flat = FlatImage::parse(&img, &clock, &model).unwrap();
        assert!(matches!(
            flat.restore_metadata(&clock, &model).unwrap_err(),
            ImageError::Checksum { .. }
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let (clock, model) = setup();
        let src = sample_source(50, 2);
        let bytes = write(&src, &clock, &model);
        let cut = bytes.slice(0..PAGE_SIZE + 10);
        let img = MappedImage::new("cut", cut);
        // Header parses (sections declared), but reading sections fails.
        match FlatImage::parse(&img, &clock, &model) {
            Err(_) => {}
            Ok(flat) => {
                assert!(flat.restore_metadata(&clock, &model).is_err());
            }
        }
    }

    #[test]
    fn warm_restore_pays_no_disk() {
        let model = CostModel::experimental_machine();
        let src = sample_source(2_000, 16);
        let img = make_image(&src);

        let cold = SimClock::new();
        let flat = FlatImage::parse(&img, &cold, &model).unwrap();
        flat.restore_metadata(&cold, &model).unwrap();
        let cold_cost = cold.now();

        // Second instance, same image: page cache is hot.
        let warm = SimClock::new();
        let flat2 = FlatImage::parse(&img, &warm, &model).unwrap();
        flat2.restore_metadata(&warm, &model).unwrap();
        assert!(
            warm.now() < cold_cost,
            "warm {} must beat cold {}",
            warm.now(),
            cold_cost
        );
    }

    #[test]
    fn table3_sizes_are_exposed() {
        let (clock, model) = setup();
        let src = sample_source(100, 0);
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert!(flat.metadata_bytes() > 0);
        assert!(flat.io_manifest_bytes() > 0);
        assert!(flat.io_manifest_bytes() < 1024);
    }

    #[test]
    fn empty_source_round_trips() {
        let (clock, model) = setup();
        let src = CheckpointSource::default();
        let flat = FlatImage::parse(&make_image(&src), &clock, &model).unwrap();
        assert_eq!(flat.restore_metadata(&clock, &model).unwrap(), Vec::new());
        assert_eq!(flat.read_io_manifest(&clock, &model).unwrap(), Vec::new());
        assert_eq!(flat.build_base_layer(&clock, &model).unwrap().len(), 0);
    }
}
