//! User profiles (paper §3, Figure 2).
//!
//! A **user profile** consists of (1) an MM profile of *desired* values,
//! (2) an MM profile of *worst acceptable* values, and (3) an importance
//! profile. An MM profile consists of video, audio, text and image
//! profiles plus a cost profile and a time profile. The GUI lets the user
//! set both the desired value and the minimum acceptable value of every
//! QoS parameter.

use nod_mmdoc::prelude::*;

use crate::importance::ImportanceProfile;
use crate::money::Money;

/// Per-media requested QoS values — one MM profile minus cost/time.
///
/// `None` for a medium means the user expressed no requirement; any variant
/// of that medium satisfies both desired and worst-acceptable levels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MmQosSpec {
    /// Requested video QoS.
    pub video: Option<VideoQos>,
    /// Requested audio QoS.
    pub audio: Option<AudioQos>,
    /// Requested text QoS.
    pub text: Option<TextQos>,
    /// Requested image QoS.
    pub image: Option<ImageQos>,
    /// Requested graphic QoS.
    pub graphic: Option<ImageQos>,
}

nod_simcore::json_struct!(MmQosSpec {
    video,
    audio,
    text,
    image,
    graphic
});

impl MmQosSpec {
    /// Does an offered per-media QoS meet this spec for its medium?
    /// Media with no requirement are vacuously met.
    pub fn met_by(&self, offered: &MediaQos) -> bool {
        match offered {
            MediaQos::Video(v) => self.video.is_none_or(|req| v.meets(&req)),
            MediaQos::Audio(a) => self.audio.is_none_or(|req| a.meets(&req)),
            MediaQos::Text(t) => self.text.is_none_or(|req| t.meets(&req)),
            MediaQos::Image(i) => self.image.is_none_or(|req| i.meets(&req)),
            MediaQos::Graphic(g) => self.graphic.is_none_or(|req| g.meets(&req)),
        }
    }

    /// The requirement for one medium, as a [`MediaQos`], if any.
    pub fn for_kind(&self, kind: MediaKind) -> Option<MediaQos> {
        match kind {
            MediaKind::Video => self.video.map(MediaQos::Video),
            MediaKind::Audio => self.audio.map(MediaQos::Audio),
            MediaKind::Text => self.text.map(MediaQos::Text),
            MediaKind::Image => self.image.map(MediaQos::Image),
            MediaKind::Graphic => self.graphic.map(MediaQos::Graphic),
        }
    }
}

/// The time profile: delivery and confirmation deadlines (seconds in the
/// GUI; milliseconds here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeProfile {
    /// How long the user will wait for delivery to begin.
    pub max_startup_ms: u64,
    /// `choicePeriod`: how long a reserved offer is held awaiting the
    /// user's confirmation (paper §8).
    pub choice_period_ms: u64,
}

nod_simcore::json_struct!(TimeProfile {
    max_startup_ms,
    choice_period_ms
});

impl Default for TimeProfile {
    fn default() -> Self {
        TimeProfile {
            max_startup_ms: 10_000,
            choice_period_ms: 30_000,
        }
    }
}

/// A complete user profile.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Profile name shown in the GUI's profile list.
    pub name: String,
    /// MM profile of desired values.
    pub desired: MmQosSpec,
    /// MM profile of worst acceptable values.
    pub worst: MmQosSpec,
    /// Cost profile: the maximum the user is willing to pay.
    pub max_cost: Money,
    /// Time profile.
    pub time: TimeProfile,
    /// Importance profile.
    pub importance: ImportanceProfile,
}

nod_simcore::json_struct!(UserProfile {
    name,
    desired,
    worst,
    max_cost,
    time,
    importance
});

impl UserProfile {
    /// A profile where desired and worst coincide (the paper's §5 examples).
    pub fn strict(name: impl Into<String>, spec: MmQosSpec, max_cost: Money) -> Self {
        UserProfile {
            name: name.into(),
            desired: spec,
            worst: spec,
            max_cost,
            time: TimeProfile::default(),
            importance: ImportanceProfile::default(),
        }
    }

    /// Validate that desired dominates worst for every requested medium and
    /// both sides request the same media.
    pub fn validate(&self) -> Result<(), String> {
        fn check<T: Copy>(
            medium: &str,
            desired: Option<T>,
            worst: Option<T>,
            dominates: impl Fn(T, T) -> bool,
        ) -> Result<(), String> {
            match (desired, worst) {
                (Some(d), Some(w)) => {
                    if dominates(d, w) {
                        Ok(())
                    } else {
                        Err(format!("{medium}: desired is below worst-acceptable"))
                    }
                }
                (None, None) => Ok(()),
                (Some(_), None) => Err(format!(
                    "{medium}: desired set but no worst-acceptable bound"
                )),
                (None, Some(_)) => Err(format!(
                    "{medium}: worst-acceptable set but no desired value"
                )),
            }
        }
        check("video", self.desired.video, self.worst.video, |d, w| {
            d.meets(&w)
        })?;
        check("audio", self.desired.audio, self.worst.audio, |d, w| {
            d.meets(&w)
        })?;
        check("text", self.desired.text, self.worst.text, |d, w| {
            d.meets(&w)
        })?;
        check("image", self.desired.image, self.worst.image, |d, w| {
            d.meets(&w)
        })?;
        check(
            "graphic",
            self.desired.graphic,
            self.worst.graphic,
            |d, w| d.meets(&w),
        )?;
        if self.max_cost.is_negative() {
            return Err("cost profile: negative maximum cost".into());
        }
        Ok(())
    }

    /// The media kinds this profile expresses requirements for, in
    /// [`MediaKind::ALL`] order.
    pub fn requested_kinds(&self) -> impl Iterator<Item = MediaKind> + '_ {
        (MediaKind::ALL.iter().copied()).filter(|&k| self.desired.for_kind(k).is_some())
    }
}

/// The default "TV news" profile used by examples: color TV-quality video
/// with graceful degradation to grey 15 fps, CD audio degradable to
/// telephone, any-language text, $6 ceiling.
pub fn tv_news_profile() -> UserProfile {
    let desired = MmQosSpec {
        video: Some(VideoQos {
            color: ColorDepth::Color,
            resolution: Resolution::TV,
            frame_rate: FrameRate::TV,
        }),
        audio: Some(AudioQos {
            quality: AudioQuality::Cd,
            language: Language::Any,
        }),
        text: Some(TextQos {
            language: Language::Any,
        }),
        image: None,
        graphic: None,
    };
    let worst = MmQosSpec {
        video: Some(VideoQos {
            color: ColorDepth::Grey,
            resolution: Resolution::new(320),
            frame_rate: FrameRate::new(15),
        }),
        audio: Some(AudioQos {
            quality: AudioQuality::Telephone,
            language: Language::Any,
        }),
        text: Some(TextQos {
            language: Language::Any,
        }),
        image: None,
        graphic: None,
    };
    UserProfile {
        name: "tv-news".into(),
        desired,
        worst,
        max_cost: Money::from_dollars(6),
        time: TimeProfile::default(),
        importance: ImportanceProfile::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video(color: ColorDepth, px: u32, fps: u32) -> VideoQos {
        VideoQos {
            color,
            resolution: Resolution::new(px),
            frame_rate: FrameRate::new(fps),
        }
    }

    #[test]
    fn spec_met_by_is_per_medium() {
        let spec = MmQosSpec {
            video: Some(video(ColorDepth::Color, 640, 25)),
            ..MmQosSpec::default()
        };
        assert!(spec.met_by(&MediaQos::Video(video(ColorDepth::SuperColor, 640, 25))));
        assert!(!spec.met_by(&MediaQos::Video(video(ColorDepth::Grey, 640, 25))));
        // No audio requirement: any audio offer is fine.
        assert!(spec.met_by(&MediaQos::Audio(AudioQos {
            quality: AudioQuality::Telephone,
            language: Language::English,
        })));
    }

    #[test]
    fn for_kind_round_trips() {
        let spec = MmQosSpec {
            audio: Some(AudioQos {
                quality: AudioQuality::Cd,
                language: Language::French,
            }),
            ..MmQosSpec::default()
        };
        assert!(matches!(
            spec.for_kind(MediaKind::Audio),
            Some(MediaQos::Audio(_))
        ));
        assert!(spec.for_kind(MediaKind::Video).is_none());
    }

    #[test]
    fn strict_profile_validates() {
        let p = UserProfile::strict(
            "strict",
            MmQosSpec {
                video: Some(video(ColorDepth::Color, 640, 25)),
                ..MmQosSpec::default()
            },
            Money::from_dollars(4),
        );
        assert!(p.validate().is_ok());
        assert!(p.requested_kinds().eq([MediaKind::Video]));
    }

    #[test]
    fn tv_news_profile_validates() {
        let p = tv_news_profile();
        assert!(p.validate().is_ok());
        let kinds = [MediaKind::Video, MediaKind::Audio, MediaKind::Text];
        assert!(p.requested_kinds().eq(kinds));
    }

    #[test]
    fn desired_below_worst_rejected() {
        let mut p = tv_news_profile();
        p.desired.video = Some(video(ColorDepth::BlackWhite, 320, 5));
        let err = p.validate().unwrap_err();
        assert!(err.contains("video"), "{err}");
    }

    #[test]
    fn one_sided_requirements_rejected() {
        let mut p = tv_news_profile();
        p.worst.audio = None;
        assert!(p.validate().unwrap_err().contains("audio"));
        let mut q = tv_news_profile();
        q.desired.text = None;
        assert!(q.validate().unwrap_err().contains("text"));
    }

    #[test]
    fn negative_cost_rejected() {
        let mut p = tv_news_profile();
        p.max_cost = Money::from_millis(-1);
        assert!(p.validate().unwrap_err().contains("cost"));
    }

    #[test]
    fn serde_round_trip() {
        let p = tv_news_profile();
        let json = nod_simcore::json::to_string(&p);
        let back: UserProfile = nod_simcore::json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
