//! One harness for every wire codec in the workspace.
//!
//! [`assert_codec`] takes samples, an encoder and a fallible decoder and
//! checks what every frame kind promises: an exact round trip, no proper
//! prefix decodes, no single corrupted byte panics the decoder or yields a
//! message that does not survive its own round trip, and trailing bytes
//! are rejected.

use std::fmt::Debug;

/// Lower-case hex, for pinning wire bytes against a literal.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Variant name of a decode error, read off its `Debug` form: testkit sits
/// below `parade-mpi` in the crate graph (`parade-net` depends on it) and
/// cannot name `DecodeError`. A wrapper around the shared error — dsm's
/// `Frame(Truncated { .. })` — is looked through.
fn variant(e: &impl Debug) -> String {
    let s = format!("{e:?}");
    let mut rest = s.as_str();
    loop {
        let end = rest
            .find(|c: char| !c.is_alphanumeric())
            .unwrap_or(rest.len());
        let (name, tail) = rest.split_at(end);
        match tail.strip_prefix('(') {
            Some(inner) if inner.starts_with(char::is_uppercase) => rest = inner,
            _ => return name.to_string(),
        }
    }
}

/// Assert the codec contract over `samples`:
///
/// * `decode(encode(s)) == s`;
/// * every proper prefix of an encoding is `Err(Truncated | Count)`;
/// * every single-byte mutation (each position, each of the 255 other
///   values) is an `Err` or an `Ok` that itself round-trips — never a
///   panic;
/// * one trailing byte is `Err(Trailing)`.
pub fn assert_codec<T, B, E>(
    samples: &[T],
    encode: impl Fn(&T) -> B,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) where
    T: PartialEq + Debug,
    B: AsRef<[u8]>,
    E: Debug,
{
    // Compared as bytes: a mutated float may be a NaN, unequal to itself.
    let reencodes = |m: &T, bytes: &[u8]| match decode(bytes) {
        Ok(back) => encode(&back).as_ref() == bytes,
        Err(e) => panic!("{m:?} does not decode from its own encoding: {e:?}"),
    };
    for sample in samples {
        let frame = encode(sample).as_ref().to_vec();
        match decode(&frame) {
            Ok(back) => assert_eq!(&back, sample, "round trip changed the sample"),
            Err(e) => panic!("{sample:?} does not decode: {e:?}"),
        }
        for cut in 0..frame.len() {
            match decode(&frame[..cut]) {
                Err(e) if matches!(variant(&e).as_str(), "Truncated" | "Count") => {}
                other => panic!(
                    "prefix {cut}/{} of {sample:?}: expected Truncated or Count, got {other:?}",
                    frame.len()
                ),
            }
        }
        let mut bytes = frame.clone();
        for pos in 0..frame.len() {
            for flip in 1..=255u8 {
                bytes[pos] = frame[pos] ^ flip;
                if let Ok(m) = decode(&bytes) {
                    // A canonical codec re-encodes the mutated frame itself,
                    // and so round-trips it: the decode is a function of the
                    // bytes.
                    let again = encode(&m);
                    assert!(
                        again.as_ref() == &bytes[..] || reencodes(&m, again.as_ref()),
                        "byte {pos} ^ {flip:#04x} of {sample:?} decodes to {m:?}, \
                         which does not survive its own round trip"
                    );
                }
            }
            bytes[pos] = frame[pos];
        }
        bytes.push(0);
        match decode(&bytes) {
            Err(e) if variant(&e) == "Trailing" => {}
            other => panic!("{sample:?} plus one byte: expected Trailing, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    #[allow(dead_code)]
    enum Inner {
        Truncated(usize),
        Count { count: u32 },
        Trailing(usize),
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    enum Outer {
        Frame(Inner),
        Misaligned { offset: u32 },
    }

    #[test]
    fn variant_names_the_innermost_error() {
        assert_eq!(variant(&Inner::Truncated(4)), "Truncated");
        assert_eq!(variant(&Inner::Count { count: 9 }), "Count");
        assert_eq!(variant(&Outer::Frame(Inner::Trailing(1))), "Trailing");
        assert_eq!(variant(&Outer::Frame(Inner::Count { count: 9 })), "Count");
        assert_eq!(variant(&Outer::Misaligned { offset: 13 }), "Misaligned");
    }

    /// A one-byte length and that many bytes.
    fn decode(b: &[u8]) -> Result<Vec<u8>, Inner> {
        let (&n, rest) = b.split_first().ok_or(Inner::Truncated(1))?;
        match rest.len().checked_sub(n as usize) {
            None => Err(Inner::Truncated(n as usize)),
            Some(0) => Ok(rest.to_vec()),
            Some(extra) => Err(Inner::Trailing(extra)),
        }
    }

    fn encode(m: &[u8]) -> Vec<u8> {
        let mut out = vec![m.len() as u8];
        out.extend_from_slice(m);
        out
    }

    #[test]
    fn a_checked_codec_passes() {
        assert_codec(&[vec![], vec![7, 8, 9]], |m| encode(m), decode);
    }

    #[test]
    #[should_panic(expected = "expected Trailing")]
    fn a_decoder_that_ignores_trailing_bytes_fails() {
        assert_codec(
            &[vec![1u8]],
            |m| encode(m),
            |b| {
                let frame = b.first().map_or(0, |&n| 1 + n as usize);
                decode(&b[..b.len().min(frame)])
            },
        );
    }
}
