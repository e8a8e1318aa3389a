//! The `citesys serve` child process and the directory it works in.
//! Both are removed on every exit path that unwinds; `run.sh` sweeps up
//! after the ones that do not (a signal), using the pid files kept here.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    pub addr: String,
    pid_file: PathBuf,
}

impl Server {
    /// Starts `citesys serve --listen 127.0.0.1:0 --data-dir <data>` with
    /// default flags (plus `--metrics` in traced runs) and waits for its
    /// `listening on <addr>` line.
    pub fn spawn(bin: &Path, data: &Path, work: &Path, metrics: bool) -> io::Result<Server> {
        let out_path = work.join("server.out");
        let out = fs::File::create(&out_path)?;
        let err = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(work.join("server.err"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0", "--data-dir"])
            .arg(data);
        if metrics {
            cmd.args(["--metrics", "127.0.0.1:0"]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()?;
        let pid_file = work.join("server.pid");
        fs::write(&pid_file, child.id().to_string())?;
        let mut server = Server {
            child,
            addr: String::new(),
            pid_file,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = fs::read_to_string(&out_path)?;
            let listening = text
                .lines()
                .find_map(|l| l.strip_prefix("listening on "))
                .filter(|_| text.ends_with('\n'));
            if let Some(addr) = listening {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                let stderr = fs::read_to_string(work.join("server.err")).unwrap_or_default();
                return Err(io::Error::other(format!(
                    "server exited early ({status}): {stderr}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server never reported its address"));
            }
            sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size of the server so far, in MB.
    pub fn vm_hwm_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SIGKILL, then wait until the process has ended.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.pid_file);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A scratch directory removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> io::Result<WorkDir> {
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Refuses to start beside a server an earlier run left alive; removes
/// what dead runs left behind.
pub fn sweep_previous_runs(out: &Path) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(out) else {
        return Ok(());
    };
    for entry in entries {
        let dir = entry?.path();
        let is_work = dir
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("work-"));
        if !is_work {
            continue;
        }
        for pid_file in pid_files(&dir)? {
            let pid = fs::read_to_string(&pid_file)?;
            let cmdline = fs::read(format!("/proc/{}/cmdline", pid.trim())).unwrap_or_default();
            if String::from_utf8_lossy(&cmdline).contains("citesys") {
                return Err(io::Error::other(format!(
                    "a previous benchmark server (pid {}) is still alive; kill it first",
                    pid.trim()
                )));
            }
        }
        fs::remove_dir_all(&dir)?;
    }
    Ok(())
}

fn pid_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            found.extend(pid_files(&path)?);
        } else if path.file_name().is_some_and(|n| n == "server.pid") {
            found.push(path);
        }
    }
    Ok(found)
}

/// Bytes of regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}
