//! Stable encoding helpers shared by every machine-readable writer in the
//! workspace: the chaos trace and bench reports (JSON), and the durability
//! journal's WAL and snapshots (checksummed line framing).
//!
//! The build is fully offline — no serde_json — so each artifact format is
//! hand-rolled. Before this module existed, every writer carried its own
//! private `json_escape`; a drift in any one of them would silently change
//! an artifact schema. All of them now route through here, and the golden
//! trace test in `guillotine-chaos` pins the rendered bytes.
//!
//! Two families live here:
//!
//! * **JSON scalars** — [`json_escape`] and [`json_number`], the exact
//!   dialect the existing artifacts use (`null` for non-finite numbers,
//!   `\uXXXX` for control characters).
//! * **Checksummed line framing** — [`frame_into`] / [`unframe`] wrap a
//!   record body as `crc32hex|body`, one record per line, so a reader can
//!   detect a torn tail by the first bad checksum. [`Escaped`] /
//!   [`unescape_field`] make arbitrary strings safe to join with `|` and
//!   `\n` inside a framed body. The writers append to a caller-owned
//!   buffer: the journal encodes a whole WAL record or snapshot into one
//!   reused `String`, with no temporary per field.

use crate::clock::SimInstant;
use crate::ids::TicketId;
use std::fmt;

/// Escapes a string for embedding inside a JSON string literal.
///
/// `"` and `\` get backslash escapes, the common whitespace controls get
/// their two-character forms, and any other control character is rendered
/// as `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 as a JSON number, or `null` for non-finite values, which
/// JSON cannot carry.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables. `CRC32_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight bitwise steps (the classic one-lookup-
/// per-byte table); `CRC32_TABLES[k][b]` is the same byte followed by `k`
/// zero bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
/// Every WAL and snapshot byte is checksummed on write and again on
/// recovery; a byte-at-a-time table walk is one dependent load per byte,
/// which made the checksum as dear as the multi-pattern scan of the same
/// text.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one framed record, `crc32hex|body` (checksum over the body
/// bytes, fixed 8 hex digits), where `body` writes the record body
/// straight into `out`. The body must not contain `\n`; callers route
/// free text through [`Escaped`].
pub fn frame_into(out: &mut String, body: impl FnOnce(&mut String)) {
    let start = out.len();
    out.push_str("00000000|");
    body(out);
    let crc = crc32(&out.as_bytes()[start + 9..]);
    let mut hex = [0u8; 8];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[((crc >> (28 - 4 * i)) & 0xF) as usize];
    }
    let hex = std::str::from_utf8(&hex).expect("hex digits are ASCII");
    out.replace_range(start..start + 8, hex);
}

/// Validates one framed line and returns the body, or `None` when the
/// frame is malformed or the checksum does not match — the torn-tail
/// signal recovery truncates on.
pub fn unframe(line: &str) -> Option<&str> {
    let (checksum, body) = line.split_at_checked(8)?;
    let body = body.strip_prefix('|')?;
    let claimed = u32::from_str_radix(checksum, 16).ok()?;
    (claimed == crc32(body.as_bytes())).then_some(body)
}

/// A [`fmt::Write`] sink that escapes what is written through it so the
/// text can be joined into a framed body with `|` separators: `\` becomes
/// `\\`, `|` becomes `\p`, and newlines become `\n` so a field can never
/// break line framing. Sinks nest: a payload that is itself a `|`-joined
/// record with an escaped field is written through two of them.
pub struct Escaped<'a, W: fmt::Write>(pub &'a mut W);

/// Index of the first byte of `word` (lowest address first) that
/// [`Escaped`] rewrites — `\\`, `|`, `\n` or `\r` — if it holds one: the
/// classic zero-byte test on `word ^ splat(byte)`. That test can flag
/// bytes above a true hit, never below one, so the lowest flag is exact.
fn first_escapable(word: [u8; 8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let word = u64::from_le_bytes(word);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let hits = zero_bytes(word ^ (ONES * u64::from(b'\\')))
        | zero_bytes(word ^ (ONES * u64::from(b'|')))
        | zero_bytes(word ^ (ONES * u64::from(b'\n')))
        | zero_bytes(word ^ (ONES * u64::from(b'\r')));
    (hits != 0).then(|| (hits.trailing_zeros() / 8) as usize)
}

impl<W: fmt::Write> fmt::Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let bytes = s.as_bytes();
        // `bytes[clean..at]` is text seen and found clean but not yet
        // written: clean runs reach the sink whole, not word by word.
        let mut clean = 0;
        let mut at = 0;
        while at < bytes.len() {
            // Eight bytes at a time while nothing needs rewriting.
            if let Some(word) = bytes[at..].first_chunk::<8>() {
                match first_escapable(*word) {
                    None => {
                        at += 8;
                        continue;
                    }
                    Some(skip) => at += skip,
                }
            }
            let escape = match bytes[at] {
                b'\\' => "\\\\",
                b'|' => "\\p",
                b'\n' => "\\n",
                b'\r' => "\\r",
                _ => {
                    at += 1;
                    continue;
                }
            };
            // Every escaped byte is ASCII, so both cuts are char boundaries.
            self.0.write_str(&s[clean..at])?;
            self.0.write_str(escape)?;
            at += 1;
            clean = at;
        }
        self.0.write_str(&s[clean..])
    }
}

/// Appends `s` to `out`, escaped as by [`Escaped`].
pub fn push_escaped(out: &mut String, s: &str) {
    // Writing to a `String` cannot fail.
    let _ = fmt::Write::write_str(&mut Escaped(out), s);
}

/// Appends `n` in decimal — the wire form of every count, id and instant.
pub fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Reverses [`Escaped`]. Unknown escapes decode to the escaped
/// character itself, so a truncated escape cannot panic.
pub fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('p') => out.push('|'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Splits a framed body on its unescaped `|` separators. Escaped fields
/// come back still escaped; callers run [`unescape_field`] per field.
pub fn split_fields(body: &str) -> Vec<&str> {
    body.split('|').collect()
}

/// Parses a [`SimInstant`]'s wire form (decimal nanoseconds).
pub fn parse_instant(s: &str) -> Option<SimInstant> {
    s.parse::<u64>().ok().map(SimInstant::from_nanos)
}

/// Renders a [`TicketId`] as its stable wire form (decimal raw id).
pub fn ticket_field(ticket: TicketId) -> String {
    ticket.raw().to_string()
}

/// Parses the wire form produced by [`ticket_field`].
pub fn parse_ticket(s: &str) -> Option<TicketId> {
    s.parse::<u32>().ok().map(TicketId::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_quotes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_number_nulls_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    /// The bitwise definition the tables are built from, kept as the
    /// reference the sliced [`crc32`] is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// [`Escaped`] one byte at a time, kept as the reference the
    /// word-at-a-time sink is checked against.
    fn escaped_bytewise(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '|' => out.push_str("\\p"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    fn framed(body: &str) -> String {
        let mut line = String::new();
        frame_into(&mut line, |out| out.push_str(body));
        line
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_short_length() {
        // Every length across the 8-byte stride and each remainder, at
        // every alignment of a non-repeating byte pattern.
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_table_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..4096),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        /// Escapable bytes at every offset within a word, in runs, next to
        /// multi-byte characters, and in the sub-word tail.
        #[test]
        fn escaped_matches_the_bytewise_reference(
            s in "[a-c|\\\\\n\ré🦀 ]{0,48}",
        ) {
            proptest::prop_assert_eq!(escaped(&s), escaped_bytewise(&s));
            // Nested: the inner sink hands the outer one clean runs and
            // two-byte escapes in turn.
            let mut twice = String::new();
            {
                use std::fmt::Write;
                let mut outer = Escaped(&mut twice);
                Escaped(&mut outer).write_str(&s).unwrap();
            }
            proptest::prop_assert_eq!(&twice, &escaped_bytewise(&escaped_bytewise(&s)));
            proptest::prop_assert_eq!(unescape_field(&unescape_field(&twice)), s);
        }
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let line = framed("enq|7|3|hello");
        assert_eq!(
            line,
            format!("{:08x}|enq|7|3|hello", crc32(b"enq|7|3|hello"))
        );
        assert_eq!(unframe(&line), Some("enq|7|3|hello"));
        let mut torn = line.clone();
        torn.truncate(line.len() - 2);
        assert_eq!(unframe(&torn), None);
        let flipped = line.replace("enq", "enQ");
        assert_eq!(unframe(&flipped), None);
        assert_eq!(unframe("short"), None);
        assert_eq!(unframe("zzzzzzzz|body"), None);
        // Frames append: a second record lands after the first, and a
        // checksum with leading zero digits keeps its fixed width.
        let mut two = line.clone();
        two.push('\n');
        frame_into(&mut two, |out| out.push_str("end"));
        assert_eq!(two, format!("{line}\n{}", framed("end")));
        assert_eq!(framed(""), "00000000|");
    }

    #[test]
    fn field_escaping_round_trips_separators() {
        let nasty = "a|b\\c\nd\re";
        let escaped_nasty = escaped(nasty);
        assert_eq!(escaped_nasty, "a\\pb\\\\c\\nd\\re");
        assert!(!escaped_nasty.contains('|'));
        assert!(!escaped_nasty.contains('\n'));
        assert_eq!(unescape_field(&escaped_nasty), nasty);
        // Joining and splitting with the separator is lossless.
        let body = format!("{}|{}", escaped("x|y"), escaped("z"));
        let fields = split_fields(&body);
        assert_eq!(fields.len(), 2);
        assert_eq!(unescape_field(fields[0]), "x|y");
        assert_eq!(unescape_field(fields[1]), "z");
        // Sinks nest: two layers in, two layers out, multi-byte text intact.
        let mut twice = String::new();
        {
            use std::fmt::Write;
            let mut outer = Escaped(&mut twice);
            Escaped(&mut outer).write_str("é|ü").unwrap();
        }
        assert_eq!(twice, escaped(&escaped("é|ü")));
        assert_eq!(unescape_field(&unescape_field(&twice)), "é|ü");
    }

    #[test]
    fn id_and_instant_fields_round_trip() {
        let mut field = String::new();
        push_decimal(&mut field, 123_456);
        assert_eq!(field, "123456");
        assert_eq!(parse_instant(&field), Some(SimInstant::from_nanos(123_456)));
        assert_eq!(parse_ticket(&field), Some(TicketId::new(123_456)));
        assert_eq!(ticket_field(TicketId::new(123_456)), field);
        for n in [0, 9, 10, u64::from(u32::MAX), u64::MAX] {
            field.clear();
            push_decimal(&mut field, n);
            assert_eq!(field, n.to_string());
        }
        assert_eq!(parse_instant("nope"), None);
        assert_eq!(parse_ticket("-1"), None);
    }
}
