/// The CRC-32 polynomial (IEEE 802.3, reflected).
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time: `TABLES[k][b]`
/// advances register value `b` through `k + 1` zero-byte steps, so one
/// lookup per input byte also accounts for the bytes after it in the same
/// eight-byte word. `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    // Index and value counted side by side: no `as` cast between them.
    let mut byte = 0usize;
    let mut value = 0u32;
    while byte < 256 {
        let mut c = value;
        let mut k = 0;
        while k < 8 {
            // Eight bit steps feed one more (zero) byte.
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                bit += 1;
            }
            tables[k][byte] = c;
            k += 1;
        }
        byte += 1;
        value += 1;
    }
    tables
}

/// Table index of one register byte.
fn at(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)]
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step over
/// compile-time tables. Guards every image section so corruption is
/// detected at parse time rather than producing a silently wrong restore;
/// it runs over every section written and every section restored, so it
/// must stay well ahead of the memory copies it accompanies.
pub fn crc32(data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = !0u32;
    let (words, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = at(t7, b0 ^ c0)
            ^ at(t6, b1 ^ c1)
            ^ at(t5, b2 ^ c2)
            ^ at(t4, b3 ^ c3)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
    }
    for &byte in tail {
        let [c0, ..] = crc.to_le_bytes();
        crc = at(t0, byte ^ c0) ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise CRC this module used to run, table built per call:
    /// the reference the slice-by-8 version must agree with bit for bit.
    fn reference(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = u32::try_from(i).unwrap();
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        let mut crc = !0u32;
        for &byte in data {
            crc = table[usize::from(crc.to_le_bytes()[0] ^ byte)] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn every_length_and_offset_matches_the_reference() {
        let data: Vec<u8> = (0..=255u8).cycle().take(96).collect();
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), reference(slice), "{start}..{end}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xABu8; 1024];
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    proptest! {
        #[test]
        fn matches_the_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            skip in 0usize..8,
        ) {
            // Every length (so every remainder mod 8), on aligned and
            // misaligned starts alike.
            let slice = data.get(skip..).unwrap_or_default();
            prop_assert_eq!(crc32(&data), reference(&data));
            prop_assert_eq!(crc32(slice), reference(slice));
        }
    }
}
