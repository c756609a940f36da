//! Allocation-free decimal formatting of `u64` values, shared by the
//! `Range` header writer and the `multipart/byteranges` part framing.

use std::fmt;

/// Largest number of decimal digits a `u64` has (`u64::MAX` has 20).
pub(crate) const MAX_DIGITS: usize = 20;

/// Number of decimal digits of `n`.
pub(crate) fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes `n` into the tail of `buf`, returning the digits.
fn encode(mut n: u64, buf: &mut [u8; MAX_DIGITS]) -> &[u8] {
    let mut at = MAX_DIGITS;
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

/// `n` in decimal at the start of a fixed buffer, and its digit count.
pub(crate) fn to_array(n: u64) -> ([u8; MAX_DIGITS], usize) {
    let mut buf = [0; MAX_DIGITS];
    let len = encode(n, &mut buf).len();
    buf.copy_within(MAX_DIGITS - len.., 0);
    (buf, len)
}

/// Appends `n` in decimal to `out`.
pub(crate) fn push(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(encode(n, &mut [0; MAX_DIGITS]));
}

/// Writes `n` in decimal to `out`, in one `write_str` call as the
/// standard `Display` of `u64` does.
pub(crate) fn write(out: &mut impl fmt::Write, n: u64) -> fmt::Result {
    let mut buf = [0; MAX_DIGITS];
    out.write_str(std::str::from_utf8(encode(n, &mut buf)).expect("ASCII digits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_std_formatting_at_every_digit_count() {
        let mut values = vec![0, u64::MAX];
        for k in 1..MAX_DIGITS as u32 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        for n in values {
            let mut bytes = Vec::new();
            push(&mut bytes, n);
            let mut text = String::from("x");
            write(&mut text, n).unwrap();
            assert_eq!(bytes, n.to_string().as_bytes(), "{n}");
            assert_eq!(text, format!("x{n}"));
            assert_eq!(digits(n), n.to_string().len(), "{n}");
            let (array, len) = to_array(n);
            assert_eq!(&array[..len], n.to_string().as_bytes(), "{n}");
        }
    }
}
