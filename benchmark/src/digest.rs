//! Order-independent digests of query results, and a byte digest for
//! generated files. A digest is the row count plus the wrapping sum of one
//! 64-bit hash per row, so two engines that emit the same multiset of rows
//! in different orders agree and a lost, added or altered row does not.

use lbr::core::Binding;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    fn add_row(&mut self, row_hash: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.sum)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over bytes, finished with an avalanche step so that row hashes
/// which differ in few bits still sum apart.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    avalanche(h)
}

fn avalanche(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Digest over dictionary ids: valid between executions on one database
/// instance, which is what "identical on every pass" needs, and cheap
/// enough to run on every op.
pub fn of_rows(rows: &[Vec<Option<Binding>>]) -> Digest {
    let mut d = Digest::default();
    for row in rows {
        let mut h = FNV_OFFSET;
        for cell in row {
            let word = match cell {
                None => u64::MAX,
                Some(b) => ((b.space as u64) << 32) | u64::from(b.id),
            };
            h = (h ^ word).wrapping_mul(FNV_PRIME);
        }
        d.add_row(avalanche(h));
    }
    d
}

/// Digest over the binding objects of a W3C SPARQL Results JSON document
/// (the text `lbr::format::write_json` and `lbr-server` emit): valid
/// across processes, data-set rebuilds and the HTTP / in-process paths.
/// `None` when the document has no `"bindings":[` array or it is cut short.
pub fn of_json_bindings(body: &[u8]) -> Option<Digest> {
    const MARK: &[u8] = b"\"bindings\":[";
    let start = body.windows(MARK.len()).position(|w| w == MARK)? + MARK.len();
    let mut d = Digest::default();
    let (mut depth, mut in_str, mut escaped, mut row_start) = (0usize, false, false, 0usize);
    for (i, &b) in body.iter().enumerate().skip(start) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    row_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    d.add_row(hash_bytes(&body[row_start..=i]));
                }
            }
            b']' if depth == 0 => return Some(d),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbr::core::BindingSpace;

    fn doc(rows: &[&str]) -> Vec<u8> {
        format!(
            "{{\"head\":{{\"vars\":[\"x\"]}},\"results\":{{\"bindings\":[{}]}}}}",
            rows.join(",")
        )
        .into_bytes()
    }

    #[test]
    fn json_digest_ignores_row_order_only() {
        let a = r#"{"x":{"type":"uri","value":"urn:a"}}"#;
        let b = r#"{"x":{"type":"literal","value":"brace } \" ] in a string"}}"#;
        let ab = of_json_bindings(&doc(&[a, b])).unwrap();
        assert_eq!(ab.rows, 2);
        assert_eq!(ab, of_json_bindings(&doc(&[b, a])).unwrap());
        assert_ne!(ab, of_json_bindings(&doc(&[a, a])).unwrap());
        assert_ne!(ab, of_json_bindings(&doc(&[a])).unwrap());
        assert_eq!(of_json_bindings(&doc(&[])).unwrap(), Digest::default());
        // An unbound row is an empty object and still counts.
        assert_eq!(of_json_bindings(&doc(&["{}", "{}"])).unwrap().rows, 2);
    }

    #[test]
    fn json_digest_refuses_a_truncated_body() {
        let full = doc(&[r#"{"x":{"type":"uri","value":"urn:a"}}"#]);
        assert!(of_json_bindings(&full[..full.len() - 4]).is_none());
        assert!(of_json_bindings(b"{\"head\":{},\"boolean\":true}").is_none());
    }

    #[test]
    fn id_digest_ignores_row_order_only() {
        let b = |id| {
            Some(Binding {
                id,
                space: BindingSpace::Subject,
            })
        };
        let r1 = vec![b(1), None];
        let r2 = vec![b(2), b(1)];
        let fwd = of_rows(&[r1.clone(), r2.clone()]);
        assert_eq!(fwd, of_rows(&[r2.clone(), r1.clone()]));
        assert_ne!(fwd, of_rows(&[r1.clone(), r1.clone()]));
        assert_ne!(of_rows(&[vec![b(1), None]]), of_rows(&[vec![None, b(1)]]));
    }
}
