//! Host facts stamped into every result, so that results from different
//! machines are never compared as if they were alike.

use obs::Json;

/// What the benchmark records about the machine and the code it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// CPU model name, where `/proc/cpuinfo` gives one.
    pub cpu: String,
    /// Kernel release, where `/proc` gives one.
    pub kernel: String,
    /// Commit of the measured tree, where it can be found.
    pub commit: String,
}

impl HostFacts {
    /// Read the facts of this host.
    pub fn probe() -> HostFacts {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostFacts { parallelism: crate::nproc(), cpu, kernel, commit: commit() }
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj_from([
            ("available_parallelism".to_string(), Json::Num(self.parallelism as f64)),
            ("cpu_model".to_string(), Json::Str(self.cpu.clone())),
            ("kernel".to_string(), Json::Str(self.kernel.clone())),
            ("commit".to_string(), Json::Str(self.commit.clone())),
        ])
    }

    /// Read facts back from [`Self::to_json`]'s shape.
    pub fn from_json(j: &Json) -> Option<HostFacts> {
        let s = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        Some(HostFacts {
            parallelism: j.get("available_parallelism")?.as_f64()? as usize,
            cpu: s("cpu_model")?,
            kernel: s("kernel")?,
            commit: s("commit")?,
        })
    }

    /// The facts that make timings comparable and differ between `self`
    /// and `other` (the commit is expected to differ and is not one).
    pub fn timing_mismatches(&self, other: &HostFacts) -> Vec<String> {
        let mut out = Vec::new();
        if self.parallelism != other.parallelism {
            out.push(format!(
                "available_parallelism {} vs {}",
                self.parallelism, other.parallelism
            ));
        }
        if self.cpu != other.cpu {
            out.push(format!("cpu_model {:?} vs {:?}", self.cpu, other.cpu));
        }
        if self.kernel != other.kernel {
            out.push(format!("kernel {:?} vs {:?}", self.kernel, other.kernel));
        }
        out
    }
}

/// The measured tree's commit, read from `.git` in the working
/// directory (never above it); "unknown" for an exported checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let resolved = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        }),
    });
    resolved.filter(|s| !s.is_empty()).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_round_trip_and_flag_differences() {
        let a = HostFacts::probe();
        assert!(a.parallelism >= 1);
        let back = HostFacts::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(a, back);
        let mut b = a.clone();
        b.commit = "other".into();
        assert!(a.timing_mismatches(&b).is_empty());
        b.parallelism += 1;
        b.cpu.push('!');
        assert_eq!(a.timing_mismatches(&b).len(), 2);
    }
}
