//! In-memory virtual filesystem.
//!
//! Flat path → node map with POSIX-ish modes; enough surface for the three
//! workload applications (static pages for the web server, WAL and data
//! files for the database, download files for the FTP server) and for the
//! `chmod` privilege-escalation scenarios of Table 6.
//!
//! File contents are copy-on-write: cloning a [`Vfs`] (a world snapshot,
//! restore or fork) shares every file's bytes, and the first mutation of a
//! shared file unshares it through [`FileNode::data_mut`].

use std::collections::BTreeMap;
use std::sync::Arc;

/// A regular file.
#[derive(Debug, Clone, Default)]
pub struct FileNode {
    /// File contents, shared with every snapshot and fork that has not
    /// written the file since. Mutate through [`FileNode::data_mut`].
    pub data: Arc<Vec<u8>>,
    /// POSIX mode bits (e.g. 0o644).
    pub mode: u32,
    /// Whether the execute bit matters for `execve` (convenience flag).
    pub executable: bool,
}

impl FileNode {
    /// Mutable contents; copies them first if another world shares them.
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.data)
    }
}

/// The filesystem tree (flat namespace; directories are prefixes).
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    files: BTreeMap<String, FileNode>,
    dirs: BTreeMap<String, u32>,
}

impl Vfs {
    /// An empty filesystem with `/` present.
    pub fn new() -> Self {
        let mut v = Vfs::default();
        v.dirs.insert("/".into(), 0o755);
        v
    }

    /// Creates or replaces a file. Passing an `Arc` installs shared
    /// contents (a fixture many worlds read) without copying them.
    pub fn put_file(&mut self, path: impl Into<String>, data: impl Into<Arc<Vec<u8>>>, mode: u32) {
        let path = path.into();
        self.files.insert(
            path,
            FileNode {
                data: data.into(),
                executable: mode & 0o111 != 0,
                mode,
            },
        );
    }

    /// Looks a file up.
    pub fn file(&self, path: &str) -> Option<&FileNode> {
        self.files.get(path)
    }

    /// Mutable file lookup.
    pub fn file_mut(&mut self, path: &str) -> Option<&mut FileNode> {
        self.files.get_mut(path)
    }

    /// Whether `path` names an existing file.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Creates an empty file if missing; returns whether it already existed.
    pub fn ensure_file(&mut self, path: &str, mode: u32) -> bool {
        if self.files.contains_key(path) {
            true
        } else {
            self.put_file(path.to_string(), Vec::new(), mode);
            false
        }
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Renames a file.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        if let Some(node) = self.files.remove(from) {
            self.files.insert(to.to_string(), node);
            true
        } else {
            false
        }
    }

    /// Creates a directory entry.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> bool {
        if self.dirs.contains_key(path) {
            false
        } else {
            self.dirs.insert(path.to_string(), mode);
            true
        }
    }

    /// Changes a file's mode (the `chmod` target).
    pub fn chmod(&mut self, path: &str, mode: u32) -> bool {
        if let Some(f) = self.files.get_mut(path) {
            f.mode = mode;
            f.executable = mode & 0o111 != 0;
            true
        } else {
            false
        }
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_unlink() {
        let mut v = Vfs::new();
        v.put_file("/srv/index.html", b"<html>".to_vec(), 0o644);
        assert!(v.exists("/srv/index.html"));
        assert_eq!(*v.file("/srv/index.html").unwrap().data, b"<html>");
        assert!(v.unlink("/srv/index.html"));
        assert!(!v.exists("/srv/index.html"));
        assert!(!v.unlink("/srv/index.html"));
    }

    #[test]
    fn chmod_sets_executable_bit() {
        let mut v = Vfs::new();
        v.put_file("/bin/tool", vec![], 0o644);
        assert!(!v.file("/bin/tool").unwrap().executable);
        assert!(v.chmod("/bin/tool", 0o755));
        assert!(v.file("/bin/tool").unwrap().executable);
        assert!(!v.chmod("/missing", 0o755));
    }

    #[test]
    fn rename_moves_content() {
        let mut v = Vfs::new();
        v.put_file("/a", b"x".to_vec(), 0o644);
        assert!(v.rename("/a", "/b"));
        assert!(!v.exists("/a"));
        assert_eq!(*v.file("/b").unwrap().data, b"x");
    }

    #[test]
    fn clones_share_contents_until_written() {
        let mut v = Vfs::new();
        v.put_file("/f", b"abc".to_vec(), 0o644);
        let snap = v.clone();
        assert!(Arc::ptr_eq(
            &v.file("/f").unwrap().data,
            &snap.file("/f").unwrap().data
        ));
        v.file_mut("/f").unwrap().data_mut().push(b'd');
        assert_eq!(*v.file("/f").unwrap().data, b"abcd");
        assert_eq!(*snap.file("/f").unwrap().data, b"abc");
    }

    #[test]
    fn mkdir_rejects_duplicates() {
        let mut v = Vfs::new();
        assert!(v.mkdir("/tmp", 0o777));
        assert!(!v.mkdir("/tmp", 0o777));
    }
}
